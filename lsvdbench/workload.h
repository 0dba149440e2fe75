// The benchmark's three workloads: what each is made of, the op streams a
// seed generates for it, and the round that builds a fresh simulated world,
// preconditions the volume, drives the measured op stream through a
// closed-loop client, crashes and recovers, and checks every byte read.
#ifndef LSVDBENCH_WORKLOAD_H_
#define LSVDBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lsvdbench/client.h"
#include "lsvdbench/stamp.h"
#include "lsvdbench/trace.h"

namespace lsvdbench {

enum class System : uint8_t { kLsvd, kBcacheRbd };
enum class Ending : uint8_t { kOpenAfterCrash, kOpenCacheLost, kReadBack };

struct WorkloadSpec {
  std::string name;
  System system = System::kLsvd;
  Ending ending = Ending::kReadBack;
  uint64_t volume_bytes = 0;
  uint64_t write_cache_bytes = 0;  // LSVD journal
  uint64_t read_cache_bytes = 0;   // LSVD read cache
  uint64_t batch_bytes = 0;        // LSVD backend object size
  uint64_t bcache_bytes = 0;       // bcache cache device
  uint64_t measured_ops = 0;
  uint64_t fragment_writes = 0;    // small overwrites after the fill
  // Op mix of the measured stream.
  uint32_t flush_every = 0;        // every n-th op is a flush barrier
  double write_fraction = 0;       // chance a non-flush op starts a write burst
  uint32_t write_burst = 1;        // consecutive writes per burst
  uint32_t write_min_blocks = 1, write_max_blocks = 1;
  uint32_t read_min_blocks = 1, read_max_blocks = 1;
  uint64_t hot_bytes = 0;          // skewed hot set (0 = uniform)
  double hot_fraction = 0;         // share of reads aimed at the hot set
};

// The named workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

std::vector<Op> MeasuredOps(const WorkloadSpec& w, uint64_t seed);

// Everything one round measured. Virtual-time fields and counts repeat
// exactly for a seed; host-time fields do not.
struct RoundResult {
  // Host time.
  double setup_s = 0;
  double measured_host_s = 0;
  double check_host_s = 0;
  // Client, virtual time.
  uint64_t ops = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t flushes = 0;
  double client_iops = 0;
  double write_p50_us = 0, write_p99_us = 0;
  double read_p50_us = 0, read_p99_us = 0;
  // Backend ratios over the measured phase.
  double backend_write_bytes_per_client_byte = 0;
  double backend_write_ops_per_client_write = 0;
  // Checks. Live reads are judged against the model of acknowledged
  // writes; the sweep after the ending is judged the same way (or, after a
  // cache loss, against every prefix of the write log).
  VerdictCounts live;               // bad blocks in live reads
  uint64_t live_bad_reads = 0;      // reads with at least one bad block
  uint64_t read_errors = 0;         // reads that returned an error
  uint64_t write_errors = 0;
  uint64_t flush_errors = 0;
  VerdictCounts sweep;              // bad blocks after the ending
  std::vector<BadBlock> live_samples, sweep_samples;
  std::string first_read_error;
  uint64_t sweep_reads = 0;
  uint64_t sweep_bad_reads = 0;
  uint64_t sweep_read_errors = 0;
  bool prefix_ok = true;            // kOpenCacheLost only
  bool journal_held_unsent = false; // kOpenAfterCrash: the crash found
                                    // journal data the backend lacked
  bool completions_ok = true;       // every op completed exactly once
  bool recovered = true;            // the reopen succeeded
  // Per-layer figures, in the order of PerLayerNames(); only traced rounds
  // fill the host-time ones.
  std::vector<double> layer;
  std::vector<Span> spans;
};

// Names and units of the per-layer metrics a traced round reports.
struct MetricName {
  const char* name;
  const char* unit;
};
const std::vector<MetricName>& PerLayerNames();
size_t LayerIndex(std::string_view name);

// How a round's failures fall into the program's known faults (see the
// README, "Known faults"). One failed operation per client op or sweep read
// that returned wrong bytes or an error.
struct FaultTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t f1 = 0;  // sweep reads after OpenAfterCrash missing an acked write
  uint64_t f2 = 0;  // LSVD live reads returning wrong bytes
  uint64_t f3 = 0;  // LSVD reads failing with an error
  uint64_t f4 = 0;  // bcache reads returning wrong bytes
  // Something no known fault explains: a write or flush error, an op that
  // completed twice or never, a failed reopen, a non-prefix image after a
  // cache loss, or a round that did not crash with an unsent journal tail.
  bool unexplained = false;
};
FaultTally TallyFaults(const WorkloadSpec& w, const RoundResult& r);

// Plays one round. With `keep_spans` (traced rounds only) the measured
// phase's spans are returned in RoundResult::spans.
RoundResult RunRound(const WorkloadSpec& w, uint64_t seed, bool traced,
                     bool keep_spans = false);

}  // namespace lsvdbench

#endif  // LSVDBENCH_WORKLOAD_H_
