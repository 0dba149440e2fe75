// Figure 11: writeback behaviour on the HDD backend (config #2).
//
// The client performs a burst of random 4 KiB writes; we then wait until the
// remote image is synchronized with the cache. Paper result shape: LSVD
// writes back aggressively *during* the client burst (~173 MB/s average) and
// finishes shortly after the client does; bcache performs no writeback under
// load and then crawls (~15 MB/s of small replicated RBD writes) for many
// minutes — an 11.5x writeback-speed gap, during which the backend image is
// inconsistent.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

struct Timeline {
  double client_done_s = 0;
  double sync_done_s = 0;
  double writeback_mbps = 0;
  std::vector<std::pair<double, double>> series;  // (t, backend MB/s)
};

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"burst-gib=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig11_writeback");
  const double burst_gib = ArgDouble(argc, argv, "burst-gib", 1.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 8.0);
  PrintHeader("fig11_writeback",
              "Figure 11 — writeback behaviour after a random-write burst, "
              "HDD backend");
  std::printf("%g GiB of 4 KiB random writes on a %g GiB volume (paper: "
              "20 GB on 80 GiB)\n\n",
              burst_gib, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  const auto burst =
      static_cast<uint64_t>(burst_gib * static_cast<double>(kGiB));
  const Nanos bucket = kSecond;

  Timeline timelines[2];
  for (int system = 0; system < 2; system++) {
    World world(ClusterConfig::HddPool());
    VirtualDisk* disk = nullptr;
    LsvdSystem lsvd_sys;
    BcacheRbdSystem bcache_sys;
    if (system == 0) {
      lsvd_sys =
          LsvdSystem::Create(&world, DefaultLsvdConfig(volume, kSmallCache));
      disk = lsvd_sys.disk.get();
    } else {
      bcache_sys = BcacheRbdSystem::Create(&world, volume, kSmallCache);
      disk = bcache_sys.bcache.get();
    }

    const Nanos t0 = world.sim.now();
    // Sample backend bytes per second while the experiment runs.
    auto& tl = timelines[system];
    uint64_t last_backend = 0;
    auto backend_bytes = [&]() {
      const DiskStats total = world.cluster->TotalStats();
      return total.write_bytes;
    };

    FioConfig fio;
    fio.pattern = FioConfig::Pattern::kRandWrite;
    fio.block_size = 4 * kKiB;
    fio.volume_size = volume;
    fio.max_bytes = burst;
    Driver driver(&world.sim, disk, MakeFioGen(fio), 32);
    bool client_done = false;
    driver.Run([&] { client_done = true; });

    // Drive the simulation in 1 s steps, sampling and detecting sync.
    const uint64_t backend_at_start = backend_bytes();
    bool synced = false;
    for (int step = 0; step < 4000 && !synced; step++) {
      world.sim.RunUntil(t0 + (step + 1) * bucket);
      const uint64_t now_bytes = backend_bytes();
      tl.series.push_back(
          {ToSeconds(world.sim.now() - t0),
           static_cast<double>(now_bytes - last_backend - (step == 0 ? backend_at_start : 0)) /
               1e6});
      last_backend = now_bytes;
      if (client_done && tl.client_done_s == 0) {
        tl.client_done_s = ToSeconds(driver.stats().finished_at - t0);
      }
      if (client_done) {
        if (system == 0) {
          // Synced when the write cache is fully released and batches done.
          if (lsvd_sys.disk->backend().idle() &&
              lsvd_sys.disk->write_cache().fully_synced()) {
            synced = true;
          } else {
            lsvd_sys.disk->backend().Seal();
          }
        } else {
          if (bcache_sys.bcache->dirty_bytes() == 0) {
            synced = true;
          }
        }
      }
    }
    tl.sync_done_s = ToSeconds(world.sim.now() - t0);
    const double wb_window = tl.sync_done_s;
    tl.writeback_mbps =
        static_cast<double>(backend_bytes()) / wb_window / 1e6;
  }

  std::printf("%-12s %-18s %-18s %-14s\n", "system", "client done (s)",
              "synchronized (s)", "avg wb MB/s*");
  std::printf("---------------------------------------------------------\n");
  std::printf("%-12s %-18.1f %-18.1f %-14.1f\n", "lsvd",
              timelines[0].client_done_s, timelines[0].sync_done_s,
              timelines[0].writeback_mbps);
  std::printf("%-12s %-18.1f %-18.1f %-14.1f\n", "bcache+rbd",
              timelines[1].client_done_s, timelines[1].sync_done_s,
              timelines[1].writeback_mbps);
  std::printf("* backend bytes (incl. replication/EC) / time to sync\n");
  std::printf("\nwriteback speedup (sync time ratio): %.1fx  (paper: 11.5x "
              "faster writeback, 120 s vs 1500+ s)\n",
              timelines[1].sync_done_s / std::max(1.0, timelines[0].sync_done_s));

  std::printf("\nbackend write throughput over time (MB/s, 1 s buckets):\n");
  std::printf("%-8s %-12s %-12s\n", "t(s)", "lsvd", "bcache+rbd");
  const size_t rows =
      std::max(timelines[0].series.size(), timelines[1].series.size());
  for (size_t i = 0; i < rows; i += std::max<size_t>(1, rows / 40)) {
    const double a =
        i < timelines[0].series.size() ? timelines[0].series[i].second : 0;
    const double b =
        i < timelines[1].series.size() ? timelines[1].series[i].second : 0;
    std::printf("%-8zu %-12.1f %-12.1f\n", i + 1, a, b);
  }
  return 0;
}
