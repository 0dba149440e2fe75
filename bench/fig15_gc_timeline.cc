// Figure 15 (+ §4.6 physical experiments): garbage collection effectiveness
// and cost under varmail.
//
// Paper result shape: with GC off, invalid (stale) data grows nearly
// linearly; with GC on, cleaning starts when utilization hits 70% and holds
// garbage to <=30% of the total, at a small throughput cost (~10% for
// varmail) and overall write amplification ~1.18.
#include "bench/common.h"
#include "src/workload/filebench.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig15_gc_timeline");
  const double seconds = ArgDouble(argc, argv, "seconds", 30.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 2.0);
  PrintHeader("fig15_gc_timeline",
              "Figure 15 — GC keeps stale data bounded (varmail, small "
              "cache), plus GC slowdown");
  std::printf("varmail model, %gs, %g GiB volume, 5 GB cache\n\n", seconds,
              vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  struct RunResult {
    std::vector<std::pair<double, double>> live_gb;     // (t, live GB)
    std::vector<std::pair<double, double>> garbage_gb;  // (t, stale GB)
    double throughput_mbps = 0;
    double waf = 0;
    uint64_t cleaned = 0;
  };
  RunResult results[2];

  for (int gc_on = 0; gc_on < 2; gc_on++) {
    World world(ClusterConfig::SsdPool());
    LsvdConfig config = DefaultLsvdConfig(volume, kSmallCache);
    config.gc_enabled = gc_on == 1;
    LsvdSystem sys = LsvdSystem::Create(&world, config);
    Precondition(&world, sys.disk.get());

    FilebenchProfile varmail = FilebenchProfile::Varmail();
    varmail.working_set = volume;
    const Nanos t0 = world.sim.now();
    Driver driver(&world.sim, sys.disk.get(),
                  MakeFilebenchGen(varmail, volume, 5), 16,
                  t0 + FromSeconds(seconds));
    bool done = false;
    driver.Run([&] { done = true; });

    RunResult& res = results[gc_on];
    for (int step = 0; step < static_cast<int>(seconds) + 60; step++) {
      world.sim.RunUntil(t0 + (step + 1) * kSecond);
      const auto& backend = sys.disk->backend();
      const double live = static_cast<double>(backend.live_bytes()) / 1e9;
      const double total = static_cast<double>(backend.total_bytes()) / 1e9;
      res.live_gb.push_back({step + 1.0, live});
      res.garbage_gb.push_back({step + 1.0, total - live});
      if (done && world.sim.empty()) {
        break;
      }
    }
    world.sim.Run();
    const auto& stats = driver.stats();
    res.throughput_mbps =
        static_cast<double>(stats.bytes_written + stats.bytes_read) /
        ToSeconds(stats.finished_at - stats.started_at) / 1e6;
    const auto& bs = sys.disk->backend().stats();
    res.waf = bs.client_bytes > 0
                  ? static_cast<double>(bs.payload_bytes + bs.gc_bytes_copied) /
                        static_cast<double>(bs.client_bytes)
                  : 0;
    res.cleaned = bs.gc_objects_cleaned;
  }

  std::printf("%-8s %-14s %-14s %-14s %-14s\n", "t(s)", "live(gc off)",
              "stale(gc off)", "live(gc on)", "stale(gc on)");
  const size_t rows =
      std::max(results[0].live_gb.size(), results[1].live_gb.size());
  for (size_t i = 0; i < rows; i += std::max<size_t>(1, rows / 30)) {
    auto at = [&](const std::vector<std::pair<double, double>>& v) {
      return i < v.size() ? v[i].second : 0.0;
    };
    std::printf("%-8zu %-14.2f %-14.2f %-14.2f %-14.2f\n", i + 1,
                at(results[0].live_gb), at(results[0].garbage_gb),
                at(results[1].live_gb), at(results[1].garbage_gb));
  }

  std::printf("\nthroughput: gc off %.1f MB/s, gc on %.1f MB/s "
              "(slowdown %.1f%%; paper ~10%% for varmail)\n",
              results[0].throughput_mbps, results[1].throughput_mbps,
              100.0 * (1.0 - results[1].throughput_mbps /
                                 std::max(1.0, results[0].throughput_mbps)));
  std::printf("gc on: WAF %.3f (paper 1.176), objects cleaned %llu\n",
              results[1].waf,
              static_cast<unsigned long long>(results[1].cleaned));
  const auto& g_on = results[1].garbage_gb;
  const auto& l_on = results[1].live_gb;
  if (!g_on.empty()) {
    const double stale = g_on.back().second;
    const double live = l_on.back().second;
    std::printf("final stale fraction with GC: %.0f%% (paper: bounded at "
                "~30%%)\n",
                100.0 * stale / std::max(1e-9, stale + live));
  }
  return 0;
}
