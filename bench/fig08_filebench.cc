// Figure 8: Filebench throughput, LSVD vs bcache+RBD, normalized.
//
// Paper result shape: fileserver ~0.8x (LSVD slightly behind), oltp ~1.25x,
// varmail ~4x — the sync-heavy workloads win big on LSVD because a commit
// barrier is a single cache-device flush, while bcache writes out B-tree
// metadata on every barrier (§4.2.2). LSVD additionally writes everything
// back and garbage-collects *during* the runs.
#include "bench/common.h"
#include "src/workload/filebench.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig08_filebench");
  const double seconds = ArgDouble(argc, argv, "seconds", 10.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 8.0);
  PrintHeader("fig08_filebench",
              "Figure 8 — Filebench throughput, LSVD vs RBD+bcache");
  std::printf("%gs per cell, %g GiB volume, large cache, ext4-level block "
              "stream (Table 3 models)\n\n",
              seconds, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Table table({"workload", "lsvd MB/s", "lsvd WAF", "bcache+rbd MB/s",
               "normalized (lsvd/bcache)", "paper"});

  for (const auto& profile :
       {FilebenchProfile::Fileserver(), FilebenchProfile::Oltp(),
        FilebenchProfile::Varmail()}) {
    double mbps[2];
    double waf = 0;
    for (int system = 0; system < 2; system++) {
      World world(ClusterConfig::SsdPool());
      VirtualDisk* disk = nullptr;
      LsvdSystem lsvd_sys;
      BcacheRbdSystem bcache_sys;
      if (system == 0) {
        lsvd_sys = LsvdSystem::Create(&world,
                                      DefaultLsvdConfig(volume, kLargeCache));
        disk = lsvd_sys.disk.get();
      } else {
        bcache_sys = BcacheRbdSystem::Create(&world, volume, kLargeCache);
        disk = bcache_sys.bcache.get();
      }
      Precondition(&world, disk);
      // The paper pre-loads the (large) cache before each test (§4.2): warm
      // with one sequential read pass so reads hit the cache in both systems.
      {
        FioConfig warm;
        warm.pattern = FioConfig::Pattern::kSeqRead;
        warm.block_size = 256 * kKiB;
        warm.volume_size = volume;
        warm.max_bytes = volume;
        Driver warmer(&world.sim, disk, MakeFioGen(warm), 16);
        bool warmed = false;
        warmer.Run([&] { warmed = true; });
        world.sim.Run();
        if (!warmed) {
          std::abort();
        }
      }

      FilebenchProfile scaled = profile;
      scaled.working_set = std::min<uint64_t>(profile.working_set, volume);
      Driver driver(&world.sim, disk,
                    MakeFilebenchGen(scaled, volume, 3),
                    /*queue_depth=*/16,
                    world.sim.now() + FromSeconds(seconds));
      bool done = false;
      driver.Run([&] { done = true; });
      world.sim.Run();
      const DriverStats& stats = driver.stats();
      const double data_bytes = static_cast<double>(stats.bytes_written) +
                                static_cast<double>(stats.bytes_read);
      mbps[system] =
          data_bytes / ToSeconds(stats.finished_at - stats.started_at) / 1e6;
      if (system == 0) {
        const auto& bs = lsvd_sys.disk->backend().stats();
        waf = bs.client_bytes > 0
                  ? static_cast<double>(bs.payload_bytes +
                                        bs.gc_bytes_copied) /
                        static_cast<double>(bs.client_bytes)
                  : 0.0;
      }
    }
    std::string paper = profile.name == "fileserver" ? "0.8x"
                        : profile.name == "oltp"     ? "1.25x"
                                                     : "4x";
    table.AddRow({profile.name, Table::Fmt(mbps[0], 1), Table::Fmt(waf, 2),
                  Table::Fmt(mbps[1], 1), Table::Fmt(mbps[0] / mbps[1], 2),
                  paper});
  }
  table.Print();
  std::printf("\npaper WAFs: fileserver 1.046, varmail 1.22, oltp 1.75\n");
  return 0;
}
