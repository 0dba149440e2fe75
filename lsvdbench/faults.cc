#include "lsvdbench/faults.h"

#include <cstdio>

#include "lsvdbench/workload.h"
#include "src/util/units.h"

namespace lsvdbench {
namespace {

struct Repro {
  const char* name;
  const char* workload;
  uint64_t measured_ops;
  uint64_t seed;
  const char* what;
  // F3 needs reads racing garbage collection, which lsvd-read-miss avoids:
  // a smaller volume with more overwrites makes GC run under the reads.
  bool gc_under_reads = false;
};

// Small fixed inputs on which each known fault shows. The seeds were found
// by trying seeds in order; each scenario is one round of the named
// workload with a shorter measured phase.
const Repro kRepros[] = {
    {"F1", "lsvd-write-gc", 6000, 1,
     "OpenAfterCrash loses acknowledged writes: sweep reads after the reopen "
     "return an older intact version of the block"},
    {"F2", "lsvd-read-miss", 6000, 1,
     "live LSVD reads return wrong bytes: another block's data, zeros or an "
     "older version"},
    {"F3", "lsvd-read-miss", 12000, 3,
     "a live LSVD read fails with an error naming a backend object",
     true},
    {"F4", "bcache-rbd-write", 6000, 1,
     "live and read-back bcache reads return another block's data"},
};

void PrintSamples(const char* what, const std::vector<BadBlock>& samples) {
  for (const BadBlock& b : samples) {
    char got[96];
    if (!b.got.intact) {
      std::snprintf(got, sizeof got, "a torn block");
    } else if (b.got.seq == 0 && b.got.lba == 0) {
      std::snprintf(got, sizeof got, "zeros");
    } else {
      std::snprintf(got, sizeof got, "write %llu of block %llu",
                    static_cast<unsigned long long>(b.got.seq),
                    static_cast<unsigned long long>(b.got.lba));
    }
    std::printf("  %s: t=%.6f s block %llu expected write %llu, got %s\n",
                what, static_cast<double>(b.when) / 1e9,
                static_cast<unsigned long long>(b.lba),
                static_cast<unsigned long long>(b.expect), got);
  }
}

}  // namespace

int RunRepro(const std::string& name, const uint64_t* seed) {
  for (const Repro& rp : kRepros) {
    if (name != rp.name) {
      continue;
    }
    WorkloadSpec w = *FindWorkload(rp.workload);
    w.measured_ops = rp.measured_ops;
    if (rp.gc_under_reads) {
      w.volume_bytes = 64 * lsvd::kMiB;
      w.read_cache_bytes = 8 * lsvd::kMiB;
      w.hot_bytes = 8 * lsvd::kMiB;
      w.write_fraction = 0.15;
      w.write_burst = 1;
      w.write_max_blocks = 4;
    }
    const uint64_t s = seed != nullptr ? *seed : rp.seed;
    std::printf("%s: %s\nscenario: one round of %s, %llu measured ops, "
                "seed %llu\n",
                rp.name, rp.what, rp.workload,
                static_cast<unsigned long long>(rp.measured_ops),
                static_cast<unsigned long long>(s));
    const RoundResult r = RunRound(w, s, false);
    const FaultTally t = TallyFaults(w, r);
    std::printf(
        "attempted %llu failed %llu: F1 %llu, F2 %llu, F3 %llu, F4 %llu%s\n",
        static_cast<unsigned long long>(t.attempted),
        static_cast<unsigned long long>(t.failed),
        static_cast<unsigned long long>(t.f1),
        static_cast<unsigned long long>(t.f2),
        static_cast<unsigned long long>(t.f3),
        static_cast<unsigned long long>(t.f4),
        t.unexplained ? " (and an unexplained failure)" : "");
    if (!r.first_read_error.empty()) {
      std::printf("  first read error: %s\n", r.first_read_error.c_str());
    }
    PrintSamples("live", r.live_samples);
    PrintSamples("sweep", r.sweep_samples);
    const uint64_t hits = name == "F1"   ? t.f1
                          : name == "F2" ? t.f2
                          : name == "F3" ? t.f3
                                         : t.f4;
    std::printf("%s %s\n", rp.name, hits != 0 ? "reproduced" : "not seen");
    return 0;
  }
  std::fprintf(stderr, "lsvdbench: unknown fault %s (F1, F2, F3 or F4)\n",
               name.c_str());
  return 2;
}

}  // namespace lsvdbench
