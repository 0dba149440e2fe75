#include "lsvdbench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string_view>

#include "lsvdbench/client.h"
#include "lsvdbench/trace.h"
#include "src/baseline/bcache_device.h"
#include "src/baseline/rbd_disk.h"
#include "src/lsvd/client_host.h"
#include "src/lsvd/lsvd_disk.h"
#include "src/objstore/sim_object_store.h"
#include "src/sim/cluster.h"
#include "src/sim/simulator.h"

namespace lsvdbench {
namespace {

using lsvd::kMiB;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    WorkloadSpec gc;
    gc.name = "lsvd-write-gc";
    gc.system = System::kLsvd;
    gc.ending = Ending::kOpenAfterCrash;
    gc.volume_bytes = 64 * kMiB;
    gc.write_cache_bytes = 16 * kMiB;
    gc.read_cache_bytes = 16 * kMiB;
    gc.batch_bytes = 1 * kMiB;
    gc.bcache_bytes = 32 * kMiB;
    gc.measured_ops = 24000;
    gc.flush_every = 32;
    gc.write_fraction = 0.92;
    gc.write_min_blocks = 1;
    gc.write_max_blocks = 4;
    gc.read_min_blocks = 1;
    gc.read_max_blocks = 4;

    WorkloadSpec bc = gc;
    bc.name = "bcache-rbd-write";
    bc.system = System::kBcacheRbd;
    bc.ending = Ending::kReadBack;

    WorkloadSpec rm;
    rm.name = "lsvd-read-miss";
    rm.system = System::kLsvd;
    rm.ending = Ending::kOpenCacheLost;
    rm.volume_bytes = 128 * kMiB;
    rm.write_cache_bytes = 16 * kMiB;
    rm.read_cache_bytes = 16 * kMiB;
    rm.batch_bytes = 1 * kMiB;
    rm.measured_ops = 36000;
    rm.fragment_writes = 4096;
    rm.flush_every = 64;
    rm.write_fraction = 0.025;
    rm.write_burst = 8;
    rm.write_min_blocks = 1;
    rm.write_max_blocks = 2;
    rm.read_min_blocks = 1;
    rm.read_max_blocks = 16;
    rm.hot_bytes = 16 * kMiB;
    rm.hot_fraction = 0.8;
    return std::vector<WorkloadSpec>{gc, rm, bc};
  }();
  return kAll;
}

// Client think time between a completion and the refill of its queue slot,
// uniform in [0, kThinkNs). Without it every op of a closed loop is issued
// on a completion instant, and latencies collapse onto a few values fixed
// by the models' service times.
constexpr int64_t kThinkNs = 2000;

// Queue depth of the closed-loop client, as in the paper's fio runs.
constexpr int kQueueDepth = 16;

uint64_t Blocks(const WorkloadSpec& w) { return w.volume_bytes / kBlock; }

Op RandomExtent(Rng* rng, OpKind kind, uint64_t base, uint64_t span,
                uint32_t min_blocks, uint32_t max_blocks) {
  Op op;
  op.kind = kind;
  op.nblocks = min_blocks +
               static_cast<uint32_t>(rng->Below(max_blocks - min_blocks + 1));
  op.lba = base + rng->Below(span - op.nblocks + 1);
  return op;
}

// Sequential fill of the whole volume in 64 KiB writes (§4.1's
// preconditioning).
std::vector<Op> FillOps(uint64_t blocks) {
  std::vector<Op> ops;
  const uint32_t chunk = 16;
  for (uint64_t lba = 0; lba < blocks; lba += chunk) {
    ops.push_back({OpKind::kWrite,
                   static_cast<uint32_t>(std::min<uint64_t>(chunk, blocks - lba)),
                   lba});
  }
  return ops;
}

std::vector<Op> FragmentOps(const WorkloadSpec& w, uint64_t seed) {
  Rng rng(seed ^ 0xF4A9u);
  std::vector<Op> ops;
  for (uint64_t i = 0; i < w.fragment_writes; i++) {
    ops.push_back(RandomExtent(&rng, OpKind::kWrite, 0, Blocks(w), 1, 1));
  }
  return ops;
}

// Whole-volume read in 256 KiB pieces.
std::vector<Op> SweepOps(uint64_t blocks) {
  std::vector<Op> ops;
  const uint32_t chunk = 64;
  for (uint64_t lba = 0; lba < blocks; lba += chunk) {
    ops.push_back({OpKind::kRead,
                   static_cast<uint32_t>(std::min<uint64_t>(chunk, blocks - lba)),
                   lba});
  }
  return ops;
}

lsvd::LsvdConfig VolumeConfig(const WorkloadSpec& w) {
  lsvd::LsvdConfig c;
  c.volume_name = "vol";
  c.volume_size = w.volume_bytes;
  c.write_cache_size = w.write_cache_bytes;
  c.read_cache_size = w.read_cache_bytes;
  c.batch_bytes = w.batch_bytes;
  return c;
}

const TracedDisk::Names kLsvdNames{
    "lsvd.write.call", "lsvd.read.call", "lsvd.flush.call", "lsvd.write",
    "lsvd.read",       "lsvd.flush",     "client.complete"};
const TracedDisk::Names kBcacheNames{
    "bcache.write.call", "bcache.read.call", "bcache.flush.call",
    "bcache.write",      "bcache.read",      "bcache.flush",
    "client.complete"};
const TracedDisk::Names kRbdNames{
    "rbd.write.call", "rbd.read.call", "rbd.flush.call", "rbd.write",
    "rbd.read",       "rbd.flush",     "bcache.rbd_callback"};

// Calls one of the disk's asynchronous lifecycle methods (Create, Drain,
// OpenAfterCrash, ...) and steps the simulator until it completes.
bool RunToCallback(lsvd::Simulator* sim, lsvd::LsvdDisk* disk,
                   void (lsvd::LsvdDisk::*call)(std::function<void(lsvd::Status)>)) {
  std::optional<lsvd::Status> s;
  (disk->*call)([&](lsvd::Status st) { s = st; });
  while (!s.has_value() && sim->Step()) {
  }
  return s.has_value() && s->ok();
}

// One simulated world: client host with its SSD and link, backend cluster
// and object store, and the system under test (with the tracing
// decorators spliced in when traced). Members are destroyed bottom-up, so
// disks go before the host and store they point into.
struct World {
  World(const WorkloadSpec& w, bool traced)
      : cluster(&sim, lsvd::ClusterConfig::SsdPool()),
        host(&sim, lsvd::ClientHostConfig{}),
        store(&sim, &cluster, host.link(), lsvd::SimObjectStoreConfig{}),
        tracer(&sim),
        traced_store(&tracer, &store) {
    lsvd::ObjectStore* st = traced ? static_cast<lsvd::ObjectStore*>(&traced_store)
                                   : &store;
    if (w.system == System::kLsvd) {
      disk = std::make_unique<lsvd::LsvdDisk>(&host, st, VolumeConfig(w));
      created = RunToCallback(&sim, disk.get(), &lsvd::LsvdDisk::Create);
      top = disk.get();
      if (traced) {
        traced_top = std::make_unique<TracedDisk>(&tracer, disk.get(),
                                                  Layer::kLsvd, Layer::kClient,
                                                  kLsvdNames);
      }
    } else {
      rbd = std::make_unique<lsvd::RbdDisk>(&sim, &cluster, host.link(),
                                            w.volume_bytes, lsvd::RbdConfig{});
      lsvd::VirtualDisk* backing = rbd.get();
      if (traced) {
        traced_rbd = std::make_unique<TracedDisk>(&tracer, rbd.get(),
                                                  Layer::kRbd, Layer::kBcache,
                                                  kRbdNames);
        backing = traced_rbd.get();
      }
      auto region = host.AllocRegion(w.bcache_bytes, "bcache");
      created = region.ok();
      bcache = std::make_unique<lsvd::BcacheDevice>(
          &host, backing, created ? region.value() : 0, w.bcache_bytes,
          lsvd::BcacheConfig{});
      top = bcache.get();
      if (traced) {
        traced_top = std::make_unique<TracedDisk>(&tracer, bcache.get(),
                                                  Layer::kBcache,
                                                  Layer::kClient, kBcacheNames);
      }
    }
    client_disk = traced ? traced_top.get() : top;
  }

  lsvd::Simulator sim;
  lsvd::BackendCluster cluster;
  lsvd::ClientHost host;
  lsvd::SimObjectStore store;
  Tracer tracer;
  TracedStore traced_store;
  std::unique_ptr<lsvd::ClientHost> host2;  // after a cache loss
  std::unique_ptr<lsvd::RbdDisk> rbd;
  std::unique_ptr<TracedDisk> traced_rbd;
  std::unique_ptr<lsvd::BcacheDevice> bcache;
  std::unique_ptr<lsvd::LsvdDisk> disk;
  std::unique_ptr<lsvd::LsvdDisk> reopened;
  std::unique_ptr<TracedDisk> traced_top;
  lsvd::VirtualDisk* top = nullptr;          // the system under test
  lsvd::VirtualDisk* client_disk = nullptr;  // what the client calls
  bool created = false;
};

// Public counters of every layer, snapshotted around the measured phase.
struct Counters {
  uint64_t events = 0;
  lsvd::DiskStats cluster;
  int64_t cluster_busy = 0;
  uint64_t net_sent = 0, net_received = 0;
  lsvd::SsdStats ssd;
  lsvd::LsvdDiskStats lsvd;
  lsvd::ReadCacheStats rc;
  lsvd::WriteCacheStats wc;
  lsvd::BackendStoreStats be;
  lsvd::ObjectStoreStats os;
  lsvd::RbdStats rbd;
};

Counters Snapshot(World& w) {
  Counters c;
  c.events = w.sim.events_processed();
  c.cluster = w.cluster.TotalStats();
  c.cluster_busy = w.cluster.TotalBusy();
  c.net_sent = w.host.link()->bytes_sent();
  c.net_received = w.host.link()->bytes_received();
  c.ssd = w.host.ssd()->stats();
  if (w.disk != nullptr) {
    c.lsvd = w.disk->stats();
    c.rc = w.disk->read_cache().stats();
    c.wc = w.disk->write_cache().stats();
    c.be = w.disk->backend().stats();
  }
  c.os = w.store.stats();
  if (w.rbd != nullptr) {
    c.rbd = w.rbd->stats();
  }
  return c;
}

// Mean host ns per span over the spans of all the given names.
double MeanNs(const Tracer& t, std::initializer_list<const char*> names) {
  int64_t ns = 0;
  uint64_t count = 0;
  for (const char* name : names) {
    if (const SpanTotals* s = t.Find(name)) {
      ns += s->host_ns;
      count += s->count;
    }
  }
  return count == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(count);
}
double VirtMs(const Tracer& t, const char* name, double p) {
  const SpanTotals* s = t.Find(name);
  return s == nullptr ? 0 : Percentile(s->virt_ns, p) / 1e6;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) {
    names.push_back(w.name);
  }
  return names;
}

std::vector<Op> MeasuredOps(const WorkloadSpec& w, uint64_t seed) {
  Rng rng(seed);
  const uint64_t blocks = Blocks(w);
  const uint64_t hot = w.hot_bytes / kBlock;
  std::vector<Op> ops;
  ops.reserve(w.measured_ops);
  uint32_t pending_writes = 0;  // rest of the current write burst
  for (uint64_t i = 1; i <= w.measured_ops; i++) {
    if (w.flush_every != 0 && i % w.flush_every == 0) {
      ops.push_back({OpKind::kFlush, 0, 0});
      continue;
    }
    if (pending_writes > 0 || rng.Unit() < w.write_fraction) {
      pending_writes = pending_writes > 0 ? pending_writes - 1 : w.write_burst - 1;
      ops.push_back(RandomExtent(&rng, OpKind::kWrite, 0, blocks,
                                 w.write_min_blocks, w.write_max_blocks));
      continue;
    }
    // The hot set sits in the middle of the volume.
    const bool in_hot = hot != 0 && rng.Unit() < w.hot_fraction;
    ops.push_back(RandomExtent(&rng, OpKind::kRead,
                               in_hot ? (blocks - hot) / 2 : 0,
                               in_hot ? hot : blocks, w.read_min_blocks,
                               w.read_max_blocks));
  }
  return ops;
}

const std::vector<MetricName>& PerLayerNames() {
  static const std::vector<MetricName> kNames = {
      {"sim.events", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.cluster.write_ops", "count"},
      {"sim.cluster.write_bytes", "B"},
      {"sim.cluster.read_ops", "count"},
      {"sim.cluster.read_bytes", "B"},
      {"sim.cluster.busy_ms", "ms"},
      {"sim.net.bytes_sent", "B"},
      {"sim.net.bytes_received", "B"},
      {"blockdev.ssd.write_ops", "count"},
      {"blockdev.ssd.write_bytes", "B"},
      {"blockdev.ssd.read_ops", "count"},
      {"blockdev.ssd.read_bytes", "B"},
      {"blockdev.ssd.flushes", "count"},
      {"lsvd.write.call_host_ns", "ns"},
      {"lsvd.read.call_host_ns", "ns"},
      {"lsvd.flush.call_host_ns", "ns"},
      {"lsvd.read.write_cache_frags", "count"},
      {"lsvd.read.read_cache_frags", "count"},
      {"lsvd.read.backend_frags", "count"},
      {"lsvd.read.zero_frags", "count"},
      {"lsvd.read_cache.hit_ratio", "ratio"},
      {"lsvd.read_cache.insertions", "count"},
      {"lsvd.read_cache.evictions", "count"},
      {"lsvd.read_cache.invalidations", "count"},
      {"lsvd.write_cache.records", "count"},
      {"lsvd.write_cache.record_bytes", "B"},
      {"lsvd.write_cache.stalled_appends", "count"},
      {"lsvd.write_cache.evicted_records", "count"},
      {"lsvd.write_cache.checkpoints", "count"},
      {"lsvd.backend.objects_put", "count"},
      {"lsvd.backend.object_bytes", "B"},
      {"lsvd.backend.coalesced_bytes", "B"},
      {"lsvd.backend.checkpoints", "count"},
      {"lsvd.backend.objects_deleted", "count"},
      {"lsvd.gc.objects_cleaned", "count"},
      {"lsvd.gc.bytes_copied", "B"},
      {"lsvd.gc.cache_hits", "count"},
      {"lsvd.recovery.virtual_ms", "ms"},
      {"lsvd.recovery.host_ms", "ms"},
      {"lsvd.recovery.gets", "count"},
      {"lsvd.recovery.get_bytes", "B"},
      {"objstore.puts", "count"},
      {"objstore.put_bytes", "B"},
      {"objstore.put_p50_ms", "ms"},
      {"objstore.put_p99_ms", "ms"},
      {"objstore.deletes", "count"},
      {"objstore.gets", "count"},
      {"objstore.get_bytes", "B"},
      {"objstore.get_p50_ms", "ms"},
      {"objstore.get_p99_ms", "ms"},
      {"objstore.call_host_ns", "ns"},
      {"objstore.callback_host_ns", "ns"},
      {"objstore.failed_ops", "count"},
      {"baseline.bcache.write_call_host_ns", "ns"},
      {"baseline.bcache.read_call_host_ns", "ns"},
      {"baseline.rbd.writes", "count"},
      {"baseline.rbd.write_bytes", "B"},
      {"baseline.rbd.reads", "count"},
      {"baseline.rbd.write_p99_ms", "ms"},
      {"baseline.rbd.call_host_ns", "ns"},
      {"layer.client.self_host_ms", "ms"},
      {"layer.lsvd.self_host_ms", "ms"},
      {"layer.objstore.self_host_ms", "ms"},
      {"layer.bcache.self_host_ms", "ms"},
      {"layer.rbd.self_host_ms", "ms"},
      {"layer.untraced.self_host_ms", "ms"},
      {"client.check_host_s", "s"},
  };
  return kNames;
}

FaultTally TallyFaults(const WorkloadSpec& w, const RoundResult& r) {
  FaultTally t;
  t.attempted = r.ops + r.sweep_reads;
  const bool lsvd = w.system == System::kLsvd;
  (lsvd ? t.f2 : t.f4) += r.live_bad_reads;
  if (lsvd) {
    t.f3 += r.read_errors;
  }
  switch (w.ending) {
    case Ending::kOpenAfterCrash:
      // A sweep read that failed decodes as torn blocks: one bad read.
      t.f1 += r.sweep_bad_reads - r.sweep_read_errors;
      t.f3 += r.sweep_read_errors;
      break;
    case Ending::kReadBack:
      t.f4 += r.sweep_bad_reads - r.sweep_read_errors;
      break;
    case Ending::kOpenCacheLost:
      // Acknowledged writes may be lost with the cache; only a non-prefix
      // image is wrong, and that is checked below.
      break;
  }
  t.failed = t.f1 + t.f2 + t.f3 + t.f4;
  t.unexplained = r.write_errors != 0 || r.flush_errors != 0 ||
                  !r.completions_ok || !r.recovered || !r.prefix_ok ||
                  (!lsvd && (r.read_errors != 0 || r.sweep_read_errors != 0)) ||
                  (w.ending == Ending::kOpenCacheLost &&
                   r.sweep_read_errors != 0) ||
                  (w.ending == Ending::kOpenAfterCrash &&
                   !r.journal_held_unsent);
  return t;
}

size_t LayerIndex(std::string_view name) {
  const std::vector<MetricName>& names = PerLayerNames();
  for (size_t i = 0; i < names.size(); i++) {
    if (name == names[i].name) {
      return i;
    }
  }
  std::abort();  // a name missing from PerLayerNames() is a benchmark bug
}

RoundResult RunRound(const WorkloadSpec& w, uint64_t seed, bool traced,
                     bool keep_spans) {
  RoundResult r;
  const int64_t setup0 = HostNs();
  World world(w, traced);
  if (!world.created) {
    r.recovered = false;
    return r;
  }
  const uint64_t blocks = Blocks(w);
  Model model(blocks);
  Client client(&world.sim, &model, traced ? &world.tracer : nullptr,
                kQueueDepth, kThinkNs, seed ^ 0x7417u);

  // Set-up: fill, fragment, settle. Not measured, but checked.
  bool ok = client.Run(world.client_disk, FillOps(blocks));
  if (ok && w.fragment_writes != 0) {
    ok = client.Run(world.client_disk, FragmentOps(w, seed));
  }
  if (ok && world.disk != nullptr) {
    ok = RunToCallback(&world.sim, world.disk.get(), &lsvd::LsvdDisk::Drain);
  }
  world.sim.Run();
  const std::vector<Op> ops = MeasuredOps(w, seed);
  Client::Tally setup_tally = client.tally();
  client.ResetTally();
  if (traced) {
    world.tracer = Tracer(&world.sim);
  }
  r.setup_s = static_cast<double>(HostNs() - setup0) / 1e9;

  // Measured phase.
  const Counters c0 = Snapshot(world);
  const int64_t h0 = HostNs();
  ok = client.Run(world.client_disk, ops) && ok;
  const int64_t h1 = HostNs();
  const Counters c1 = Snapshot(world);
  Client::Tally& t = client.tally();
  r.measured_host_s = static_cast<double>(h1 - h0) / 1e9;
  r.check_host_s = static_cast<double>(t.check_ns) / 1e9;
  r.ops = ops.size();
  r.writes = t.writes;
  r.reads = t.reads;
  r.flushes = t.flushes;
  const double span_s =
      static_cast<double>(std::max<int64_t>(1, t.last_done - t.first_issue)) / 1e9;
  r.client_iops = static_cast<double>(ops.size()) / span_s;
  r.write_p50_us = Percentile(t.write_ns, 0.50) / 1e3;
  r.write_p99_us = Percentile(t.write_ns, 0.99) / 1e3;
  r.read_p50_us = Percentile(t.read_ns, 0.50) / 1e3;
  r.read_p99_us = Percentile(t.read_ns, 0.99) / 1e3;
  r.backend_write_bytes_per_client_byte =
      static_cast<double>(c1.cluster.write_bytes - c0.cluster.write_bytes) /
      static_cast<double>(std::max<uint64_t>(1, t.write_bytes));
  r.backend_write_ops_per_client_write =
      static_cast<double>(c1.cluster.write_ops - c0.cluster.write_ops) /
      static_cast<double>(std::max<uint64_t>(1, t.writes));
  r.live = t.verdicts;
  r.live_samples = t.samples;
  r.first_read_error = t.first_read_error;
  r.live_bad_reads = t.bad_reads;
  r.read_errors = t.read_errors + setup_tally.read_errors;
  r.write_errors = t.write_errors + setup_tally.write_errors;
  r.flush_errors = t.flush_errors + setup_tally.flush_errors;
  r.completions_ok = ok && t.completions_ok && setup_tally.completions_ok;

  // Per-layer figures of the measured phase.
  const Tracer& tr = world.tracer;
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const double events = d(c0.events, c1.events);
  const double rc_frags = d(c0.lsvd.read_cache_hits, c1.lsvd.read_cache_hits);
  const double be_frags = d(c0.lsvd.backend_reads, c1.lsvd.backend_reads);
  const double measured_ms = r.measured_host_s * 1e3;
  const double traced_ms = static_cast<double>(tr.traced_root_ns()) / 1e6;
  r.layer = {
      events,
      traced ? 0 : r.measured_host_s * 1e9 / std::max(1.0, events),
      d(c0.cluster.write_ops, c1.cluster.write_ops),
      d(c0.cluster.write_bytes, c1.cluster.write_bytes),
      d(c0.cluster.read_ops, c1.cluster.read_ops),
      d(c0.cluster.read_bytes, c1.cluster.read_bytes),
      static_cast<double>(c1.cluster_busy - c0.cluster_busy) / 1e6,
      d(c0.net_sent, c1.net_sent),
      d(c0.net_received, c1.net_received),
      d(c0.ssd.write_ops, c1.ssd.write_ops),
      d(c0.ssd.write_bytes, c1.ssd.write_bytes),
      d(c0.ssd.read_ops, c1.ssd.read_ops),
      d(c0.ssd.read_bytes, c1.ssd.read_bytes),
      d(c0.ssd.flushes, c1.ssd.flushes),
      MeanNs(tr, {"lsvd.write.call"}),
      MeanNs(tr, {"lsvd.read.call"}),
      MeanNs(tr, {"lsvd.flush.call"}),
      d(c0.lsvd.write_cache_hits, c1.lsvd.write_cache_hits),
      rc_frags,
      be_frags,
      d(c0.lsvd.zero_reads, c1.lsvd.zero_reads),
      rc_frags + be_frags == 0 ? 0 : rc_frags / (rc_frags + be_frags),
      d(c0.rc.insertions, c1.rc.insertions),
      d(c0.rc.evictions, c1.rc.evictions),
      d(c0.rc.invalidations, c1.rc.invalidations),
      d(c0.wc.records, c1.wc.records),
      d(c0.wc.record_bytes, c1.wc.record_bytes),
      d(c0.wc.stalled_appends, c1.wc.stalled_appends),
      d(c0.wc.evicted_records, c1.wc.evicted_records),
      d(c0.wc.checkpoints, c1.wc.checkpoints),
      d(c0.be.objects_put, c1.be.objects_put),
      d(c0.be.object_bytes, c1.be.object_bytes),
      d(c0.be.coalesced_bytes, c1.be.coalesced_bytes),
      d(c0.be.checkpoints, c1.be.checkpoints),
      d(c0.be.objects_deleted, c1.be.objects_deleted),
      d(c0.be.gc_objects_cleaned, c1.be.gc_objects_cleaned),
      d(c0.be.gc_bytes_copied, c1.be.gc_bytes_copied),
      d(c0.be.gc_cache_hits, c1.be.gc_cache_hits),
      0, 0, 0, 0,  // recovery, filled below
      d(c0.os.puts, c1.os.puts),
      d(c0.os.put_bytes, c1.os.put_bytes),
      VirtMs(tr, "objstore.put", 0.50),
      VirtMs(tr, "objstore.put", 0.99),
      d(c0.os.deletes, c1.os.deletes),
      d(c0.os.gets, c1.os.gets),
      d(c0.os.get_bytes, c1.os.get_bytes),
      VirtMs(tr, "objstore.get", 0.50),
      VirtMs(tr, "objstore.get", 0.99),
      MeanNs(tr, {"objstore.put.call", "objstore.get.call",
                  "objstore.delete.call"}),
      MeanNs(tr, {"objstore.callback"}),
      static_cast<double>(world.traced_store.failed_ops()),
      MeanNs(tr, {"bcache.write.call"}),
      MeanNs(tr, {"bcache.read.call"}),
      d(c0.rbd.writes, c1.rbd.writes),
      d(c0.rbd.write_bytes, c1.rbd.write_bytes),
      d(c0.rbd.reads, c1.rbd.reads),
      VirtMs(tr, "rbd.write", 0.99),
      MeanNs(tr, {"rbd.write.call", "rbd.read.call", "rbd.flush.call"}),
      static_cast<double>(tr.self_ns(Layer::kClient)) / 1e6,
      static_cast<double>(tr.self_ns(Layer::kLsvd)) / 1e6,
      static_cast<double>(tr.self_ns(Layer::kObjstore)) / 1e6,
      static_cast<double>(tr.self_ns(Layer::kBcache)) / 1e6,
      static_cast<double>(tr.self_ns(Layer::kRbd)) / 1e6,
      traced ? measured_ms - traced_ms : 0,
      r.check_host_s,
  };
  if (keep_spans) {
    r.spans = world.tracer.TakeSpans();
  }

  // Ending: crash and reopen, then sweep the whole volume.
  std::vector<DecodedBlock> image(blocks);
  lsvd::VirtualDisk* sweep_disk = world.top;
  if (w.ending != Ending::kReadBack) {
    const lsvd::DiskRegions regions = world.disk->regions();
    r.journal_held_unsent = !world.disk->backend().idle();
    world.disk->Kill();
    world.store.ClientCrash();
    lsvd::ClientHost* host = &world.host;
    if (w.ending == Ending::kOpenCacheLost) {
      world.host.ssd()->DiscardAll();
      world.host2 = std::make_unique<lsvd::ClientHost>(&world.sim,
                                                       lsvd::ClientHostConfig{});
      host = world.host2.get();
    }
    world.sim.Run();
    const lsvd::ObjectStoreStats os0 = world.store.stats();
    const int64_t v0 = world.sim.now();
    const int64_t rh0 = HostNs();
    if (w.ending == Ending::kOpenAfterCrash) {
      world.reopened = std::make_unique<lsvd::LsvdDisk>(
          host, &world.store, VolumeConfig(w), regions);
      r.recovered = RunToCallback(&world.sim, world.reopened.get(),
                                  &lsvd::LsvdDisk::OpenAfterCrash);
    } else {
      world.reopened = std::make_unique<lsvd::LsvdDisk>(host, &world.store,
                                                        VolumeConfig(w));
      r.recovered = RunToCallback(&world.sim, world.reopened.get(),
                                  &lsvd::LsvdDisk::OpenCacheLost);
    }
    const double recovery_host_ms = static_cast<double>(HostNs() - rh0) / 1e6;
    const lsvd::ObjectStoreStats os1 = world.store.stats();
    r.layer[LayerIndex("lsvd.recovery.virtual_ms")] =
        static_cast<double>(world.sim.now() - v0) / 1e6;
    r.layer[LayerIndex("lsvd.recovery.host_ms")] = recovery_host_ms;
    r.layer[LayerIndex("lsvd.recovery.gets")] =
        static_cast<double>(os1.gets - os0.gets);
    r.layer[LayerIndex("lsvd.recovery.get_bytes")] =
        static_cast<double>(os1.get_bytes - os0.get_bytes);
    sweep_disk = world.reopened.get();
  }
  if (r.recovered) {
    Client sweeper(&world.sim, &model, nullptr, kQueueDepth);
    const std::vector<Op> sweep = SweepOps(blocks);
    r.completions_ok = sweeper.Run(sweep_disk, sweep, &image) && r.completions_ok;
    r.sweep_reads = sweep.size();
    r.sweep_read_errors = sweeper.tally().read_errors;
    for (const Op& op : sweep) {
      bool bad = false;
      for (uint32_t b = 0; b < op.nblocks; b++) {
        const uint64_t lba = op.lba + b;
        const BlockVerdict v = Judge(image[lba], lba, model.acked(lba));
        r.sweep.Add(v);
        if (v != BlockVerdict::kOk) {
          bad = true;
          if (r.sweep_samples.size() < Client::kKeepSamples) {
            r.sweep_samples.push_back({world.sim.now(), lba, model.acked(lba),
                                       image[lba]});
          }
        }
      }
      r.sweep_bad_reads += bad ? 1 : 0;
    }
    if (w.ending == Ending::kOpenCacheLost) {
      r.prefix_ok = model.IsPrefixImage(image);
    }
  }
  return r;
}

}  // namespace lsvdbench
