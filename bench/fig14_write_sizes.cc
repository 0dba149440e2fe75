// Figure 14: histogram of backend write sizes (bytes written per merged I/O
// size bucket) during the 16 KiB random-write load test (§4.5).
//
// Paper result shape: RBD's backend writes cluster at 16-24 KiB (data writes
// plus WAL records); LSVD's cluster around 1 MiB (the 4 MiB RADOS-stripe
// data/parity chunks of a 4,2 code), plus a small-write tail of object
// metadata.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig14_write_sizes");
  const double seconds = ArgDouble(argc, argv, "seconds", 5.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 4.0);
  PrintHeader("fig14_write_sizes",
              "Figure 14 — bytes written vs backend I/O size, 16 KiB "
              "randwrite (sequential writes merged)");

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Histogram hist[2];
  for (int system = 0; system < 2; system++) {
    World world(ClusterConfig::HddPool());
    VirtualDisk* disk = nullptr;
    LsvdSystem lsvd_sys;
    std::unique_ptr<RbdDisk> rbd;
    if (system == 0) {
      lsvd_sys =
          LsvdSystem::Create(&world, DefaultLsvdConfig(volume, kSmallCache));
      disk = lsvd_sys.disk.get();
    } else {
      rbd = std::make_unique<RbdDisk>(&world.sim, world.cluster.get(),
                                      world.backend_link.get(), volume,
                                      RbdConfig{});
      disk = rbd.get();
    }
    FioConfig fio;
    fio.pattern = FioConfig::Pattern::kRandWrite;
    fio.block_size = 16 * kKiB;
    fio.volume_size = volume;
    RunFio(&world, disk, fio, 32, seconds);
    world.sim.Run();
    world.cluster->FlushWriteRuns();
    hist[system] = world.cluster->write_size_histogram();
  }

  std::printf("GiB written per I/O-size bucket (lower bound of bucket):\n\n");
  Table table({"I/O size", "lsvd GiB", "rbd GiB"});
  for (int b = 12; b < 24; b++) {  // 4 KiB .. 8 MiB
    const uint64_t lower = uint64_t{1} << b;
    table.AddRow({Table::FmtBytes(lower),
                  Table::Fmt(static_cast<double>(hist[0].BucketWeight(b)) / 1e9, 3),
                  Table::Fmt(static_cast<double>(hist[1].BucketWeight(b)) / 1e9, 3)});
  }
  table.Print();
  std::printf("\nmean backend write: lsvd %s, rbd %s\n",
              Table::FmtBytes(static_cast<uint64_t>(hist[0].MeanValue())).c_str(),
              Table::FmtBytes(static_cast<uint64_t>(hist[1].MeanValue())).c_str());
  std::printf("paper: RBD almost all 16-24 KiB; LSVD clustered ~1 MiB\n");
  return 0;
}
