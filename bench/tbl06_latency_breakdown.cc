// Table 6: fine-grained single-operation latency breakdown (§4.7).
//
// The paper instrumented its kernel/userspace prototype with timestamp
// counters for isolated reads and writes. Here the per-stage costs are model
// inputs (StageCosts); this bench echoes that decomposition and then
// *measures* isolated end-to-end operation latencies in the simulator so
// the two can be compared (the end-to-end number also includes device time
// and, for a read miss, the S3 GET).
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

// Measures one operation's latency without draining background work (so a
// write can be followed immediately by a cache-hit read of the same block).
Nanos MeasureIsolated(World* world, LsvdDisk* disk, bool write,
                      uint64_t offset) {
  const Nanos t0 = world->sim.now();
  bool done = false;
  if (write) {
    disk->Write(offset, Buffer::Zeros(4 * kKiB), [&](Status) { done = true; });
  } else {
    disk->Read(offset, 4 * kKiB, [&](Result<Buffer>) { done = true; });
  }
  while (!done && world->sim.Step()) {
  }
  return world->sim.now() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"json"});
  PerfScope perf(argc, argv, "tbl06_latency_breakdown");
  PrintHeader("tbl06_latency_breakdown",
              "Table 6 — single read / write stage breakdown");

  const StageCosts costs;
  std::printf("write path (model inputs; paper's measurements in "
              "parentheses):\n");
  Table wtable({"#", "k/u", "stage", "model us", "paper us"});
  wtable.AddRow({"1", "k", "write to NVMe (device model)", "-", "64"});
  wtable.AddRow({"2", "k", "map update",
                 Table::Fmt(costs.write_map_update / 1e3, 0), "3"});
  wtable.AddRow({"3", "k", "context switch (journal worker)",
                 Table::Fmt(costs.record_context_switch / 1e3, 0), "50"});
  wtable.AddRow({"4", "k", "request handling / return",
                 Table::Fmt(costs.write_submit / 1e3, 0), "20"});
  wtable.AddRow({"5", "u", "daemon (golang) per batch",
                 Table::Fmt(costs.batch_golang / 1e3, 0), "63"});
  wtable.AddRow({"6", "u", "read from NVMe (pass-through)", "-", "110"});
  wtable.AddRow({"7", "k", "return to kernel",
                 Table::Fmt(costs.return_to_kernel / 1e3, 0), "27"});
  wtable.Print();

  std::printf("\nread-miss path:\n");
  Table rtable({"#", "k/u", "stage", "model us", "paper us"});
  rtable.AddRow({"1", "k", "map lookup",
                 Table::Fmt(costs.read_map_lookup / 1e3, 0), "3"});
  rtable.AddRow({"2", "k", "context switch + returns",
                 Table::Fmt(costs.read_miss_kernel / 1e3, 0), "99"});
  rtable.AddRow({"3", "u", "daemon (golang)",
                 Table::Fmt(costs.read_miss_golang / 1e3, 0), "34"});
  rtable.AddRow({"4", "u", "S3 range request (net+disk model)", "-", "5920"});
  rtable.AddRow({"5", "u", "write to NVMe (read-cache fill)", "-", "136"});
  rtable.Print();

  // Measured end-to-end isolated latencies.
  World world(ClusterConfig::SsdPool());
  LsvdSystem sys = LsvdSystem::Create(&world, DefaultLsvdConfig(kGiB,
                                                                8 * kGiB));
  // Populate one extent and push it to the backend.
  bool ready = false;
  sys.disk->Write(0, Buffer::Zeros(kMiB), [&](Status) {});
  sys.disk->Drain([&](Status) { ready = true; });
  world.sim.Run();
  if (!ready) {
    return 1;
  }

  const Nanos write_lat = MeasureIsolated(&world, sys.disk.get(), true,
                                          512 * kMiB);
  // Immediately after the write, the same block is a write-cache hit.
  const Nanos hit_lat = MeasureIsolated(&world, sys.disk.get(), false,
                                        512 * kMiB);
  // Drain so the first extent's cache records are released: reading it is a
  // genuine backend (S3 range GET) miss.
  world.sim.Run();
  const Nanos miss_lat = MeasureIsolated(&world, sys.disk.get(), false, 0);

  std::printf("\nmeasured isolated end-to-end latencies (simulated):\n");
  Table m({"operation", "latency us", "paper (sum of stages)"});
  m.AddRow({"write (ack at cache)", Table::Fmt(write_lat / 1e3, 0), "~200"});
  m.AddRow({"read, cache hit", Table::Fmt(hit_lat / 1e3, 0), "n/a"});
  m.AddRow({"read, backend miss", Table::Fmt(miss_lat / 1e3, 0), "~6200"});
  m.Print();
  std::printf("\npaper: the S3 GET dominates the read-miss path; context "
              "switching dominates CPU overhead\n");
  MaybeDumpMetrics(world, argc, argv);
  return 0;
}
