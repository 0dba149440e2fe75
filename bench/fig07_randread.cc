// Figure 7: random-read throughput, 80 GiB volume, large cache (100 % cache
// hits after warming).
//
// Paper result shape: LSVD's (unoptimized) read cache matches bcache at low
// queue depths but falls behind by up to ~30 % at queue depth 32.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

// Warm the cache: read the whole volume once so subsequent random reads hit.
void WarmReads(World* world, VirtualDisk* disk) {
  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kSeqRead;
  fio.block_size = 256 * kKiB;
  fio.volume_size = disk->size();
  fio.max_bytes = disk->size();
  Driver driver(&world->sim, disk, MakeFioGen(fio), 16);
  bool done = false;
  driver.Run([&] { done = true; });
  world->sim.Run();
  if (!done) {
    std::abort();
  }
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N", "json"});
  PerfScope perf(argc, argv, "fig07_randread");
  const double seconds = ArgDouble(argc, argv, "seconds", 3.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 4.0);
  PrintHeader("fig07_randread",
              "Figure 7 — random read performance, large cache, 100% hits");
  std::printf("fio randread, %gs per cell, %g GiB volume (scaled from "
              "80 GiB), cache pre-warmed\n\n",
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
          lsvd_sys = LsvdSystem::Create(
              &world, DefaultLsvdConfig(volume, kLargeCache));
          disk = lsvd_sys.disk.get();
        } else {
          bcache_sys = BcacheRbdSystem::Create(&world, volume, kLargeCache);
          disk = bcache_sys.bcache.get();
        }
        Precondition(&world, disk);
        WarmReads(&world, disk);

        FioConfig fio;
        fio.pattern = FioConfig::Pattern::kRandRead;
        fio.block_size = bs;
        fio.volume_size = volume;
        const DriverStats stats = RunFio(&world, disk, fio, qd, seconds);
        mbps[system] = stats.ReadThroughputBps() / 1e6;
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
  std::printf("\npaper: roughly equal at QD4, LSVD up to 30%% behind at QD32\n");
  if (ArgFlag(argc, argv, "json")) {
    std::printf("%s\n", metrics_json.c_str());
  }
  return 0;
}
