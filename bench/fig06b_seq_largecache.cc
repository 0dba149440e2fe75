// §4.2.1 (text, graphs omitted in the paper for space): sequential
// read/write performance with a large cache.
//
// Paper result shape: sequential reads similar for both systems; sequential
// writes range from LSVD 25% faster (16 KiB QD4) to 25% slower (64 KiB
// QD32).
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig06b_seq_largecache");
  const double seconds = ArgDouble(argc, argv, "seconds", 3.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 4.0);
  PrintHeader("fig06b_seq_largecache",
              "§4.2.1 — sequential I/O, large cache (graphs omitted in the "
              "paper)");

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Table table({"op", "bs", "qd", "lsvd MB/s", "bcache+rbd MB/s",
               "lsvd/bcache"});

  for (const bool is_write : {true, false}) {
    for (const uint64_t bs : {16 * kKiB, 64 * kKiB}) {
      for (const int qd : {4, 32}) {
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
          if (!is_write) {
            // Warm the cache for reads.
            FioConfig warm;
            warm.pattern = FioConfig::Pattern::kSeqRead;
            warm.block_size = 256 * kKiB;
            warm.volume_size = volume;
            warm.max_bytes = volume;
            Driver warmer(&world.sim, disk, MakeFioGen(warm), 16);
            bool done = false;
            warmer.Run([&] { done = true; });
            world.sim.Run();
          }
          FioConfig fio;
          fio.pattern = is_write ? FioConfig::Pattern::kSeqWrite
                                 : FioConfig::Pattern::kSeqRead;
          fio.block_size = bs;
          fio.volume_size = volume;
          const DriverStats stats = RunFio(&world, disk, fio, qd, seconds);
          mbps[system] = (is_write ? stats.WriteThroughputBps()
                                   : stats.ReadThroughputBps()) /
                         1e6;
        }
        table.AddRow({is_write ? "write" : "read",
                      std::to_string(bs / kKiB) + "K", std::to_string(qd),
                      Table::Fmt(mbps[0], 1), Table::Fmt(mbps[1], 1),
                      Table::Fmt(mbps[0] / mbps[1], 2)});
      }
    }
  }
  table.Print();
  std::printf("\npaper: sequential performance similar; LSVD +25%% (16K QD4) "
              "to -25%% (64K QD32)\n");
  return 0;
}
