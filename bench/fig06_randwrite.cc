// Figure 6: random-write throughput, 80 GiB volume, large (in-cache) cache.
//
// Paper result shape: LSVD is 20-30% faster than bcache+RBD for 4 KiB and
// 16 KiB writes at every queue depth, and falls behind only for 64 KiB
// writes at queue depth 32. LSVD reaches ~60K IOPS at 4 KiB / ~50K at
// 16 KiB.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N", "json"});
  PerfScope perf(argc, argv, "fig06_randwrite");
  const double seconds = ArgDouble(argc, argv, "seconds", 3.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 8.0);
  PrintHeader("fig06_randwrite",
              "Figure 6 — random write performance, large cache");
  std::printf("fio randwrite, %gs per cell, %g GiB volume (scaled from "
              "80 GiB), preconditioned\n\n",
              seconds, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Table table({"bs", "qd", "lsvd MB/s", "lsvd IOPS", "bcache+rbd MB/s",
               "bcache+rbd IOPS", "lsvd/bcache"});

  // With --json: full registry dump of the last LSVD cell (worlds are
  // per-cell, so this is the 64K/QD32 configuration).
  std::string metrics_json;
  for (const uint64_t bs : {4 * kKiB, 16 * kKiB, 64 * kKiB}) {
    for (const int qd : {4, 16, 32}) {
      double mbps[2];
      double iops[2];
      for (int system = 0; system < 2; system++) {
        // Fresh world per cell so cells are independent, like fio runs.
        World world(ClusterConfig::SsdPool());
        std::unique_ptr<VirtualDisk> keeper;
        VirtualDisk* disk = nullptr;
        LsvdSystem lsvd_sys;
        BcacheRbdSystem bcache_sys;
        if (system == 0) {
          lsvd_sys = LsvdSystem::Create(
              &world, DefaultLsvdConfig(volume, kLargeCache));
          disk = lsvd_sys.disk.get();
        } else {
          bcache_sys = BcacheRbdSystem::Create(&world, volume, kLargeCache);
          disk = bcache_sys.bcache.get();
        }
        Precondition(&world, disk);

        FioConfig fio;
        fio.pattern = FioConfig::Pattern::kRandWrite;
        fio.block_size = bs;
        fio.volume_size = volume;
        const DriverStats stats = RunFio(&world, disk, fio, qd, seconds);
        mbps[system] = stats.WriteThroughputBps() / 1e6;
        iops[system] = stats.Iops();
        if (system == 0) {
          metrics_json = world.metrics.ToJson();
        }
      }
      table.AddRow({std::to_string(bs / kKiB) + "K", std::to_string(qd),
                    Table::Fmt(mbps[0], 1), Table::Fmt(iops[0], 0),
                    Table::Fmt(mbps[1], 1), Table::Fmt(iops[1], 0),
                    Table::Fmt(mbps[0] / mbps[1], 2)});
    }
  }
  table.Print();
  std::printf("\npaper: LSVD ahead 20-30%% at 4K/16K, behind at 64K QD32\n");
  if (ArgFlag(argc, argv, "json")) {
    std::printf("%s\n", metrics_json.c_str());
  }
  return 0;
}
