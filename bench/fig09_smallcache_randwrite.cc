// Figure 9: random writes with a small (5 GB) cache — the sustained,
// writeback-bound regime (§4.3).
//
// Paper result shape: LSVD writes back nearly as fast as a medium local SSD
// (600+ MB/s) because batches become large erasure-coded object writes;
// bcache+RBD collapses to roughly uncached RBD speed because each evicted
// block is a small replicated backend write. LSVD wins by 2-8x.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv,
             {"seconds=N", "volume-gib=N", "sequential=N", "json"});
  PerfScope perf(argc, argv, "fig09_smallcache_randwrite");
  const double seconds = ArgDouble(argc, argv, "seconds", 12.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 8.0);
  const bool sequential = ArgDouble(argc, argv, "sequential", 0) != 0;
  // The paper's 5 GB cache against an 80 GiB volume; scale the cache with
  // the volume so the cache-full, writeback-bound regime is reached within
  // the (scaled) run duration.
  const auto small_cache = static_cast<uint64_t>(
      std::max(0.75, 5.0 * vol_gib / 80.0) * 1e9);
  PrintHeader(sequential ? "fig10_smallcache_seqwrite"
                         : "fig09_smallcache_randwrite",
              sequential
                  ? "Figure 10 — sequential writes, small (5 GB) cache"
                  : "Figure 9 — random writes, small (5 GB) cache");
  std::printf("%gs per cell, %g GiB volume, scaled small cache (writeback-bound)\n\n",
              seconds, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Table table({"bs", "qd", "lsvd MB/s", "bcache+rbd MB/s", "lsvd/bcache"});

  // With --json: full registry dump of the last LSVD cell.
  std::string metrics_json;
  for (const uint64_t bs : {4 * kKiB, 16 * kKiB, 64 * kKiB}) {
    for (const int qd : {4, 16, 32}) {
      double mbps[2];
      for (int system = 0; system < 2; system++) {
        World world(ClusterConfig::SsdPool());
        VirtualDisk* disk = nullptr;
        LsvdSystem lsvd_sys;
        BcacheRbdSystem bcache_sys;
        if (system == 0) {
          lsvd_sys = LsvdSystem::Create(&world,
                                        DefaultLsvdConfig(volume, small_cache));
          disk = lsvd_sys.disk.get();
        } else {
          bcache_sys = BcacheRbdSystem::Create(&world, volume, small_cache);
          disk = bcache_sys.bcache.get();
        }
        Precondition(&world, disk);

        FioConfig fio;
        fio.pattern = sequential ? FioConfig::Pattern::kSeqWrite
                                 : FioConfig::Pattern::kRandWrite;
        fio.block_size = bs;
        fio.volume_size = volume;
        const DriverStats stats = RunFio(&world, disk, fio, qd, seconds);
        mbps[system] = stats.WriteThroughputBps() / 1e6;
        if (system == 0) {
          metrics_json = world.metrics.ToJson();
        }
      }
      table.AddRow({std::to_string(bs / kKiB) + "K", std::to_string(qd),
                    Table::Fmt(mbps[0], 1), Table::Fmt(mbps[1], 1),
                    Table::Fmt(mbps[0] / mbps[1], 2)});
    }
  }
  table.Print();
  std::printf("\npaper: LSVD ~600 MB/s sustained, 2-8x over bcache+RBD; RBD "
              "gains little from bcache here\n");
  if (ArgFlag(argc, argv, "json")) {
    std::printf("%s\n", metrics_json.c_str());
  }
  return 0;
}
