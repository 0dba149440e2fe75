// Figure 13: I/O and byte amplification for the 16 KiB random-write load
// test (§4.5).
//
// Paper result: RBD suffers 6x amplification in both operations and bytes
// (data + WAL at each of 3 replicas); LSVD generates ~0.25 backend ops per
// client op (one ~1 MiB chunk write covers many batched client writes) —
// a 24x I/O-efficiency gap.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig13_amplification");
  const double seconds = ArgDouble(argc, argv, "seconds", 5.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 4.0);
  PrintHeader("fig13_amplification",
              "Figure 13 — I/O and byte amplification, 16 KiB randwrite");
  std::printf("16 KiB randwrite QD32, %gs, %g GiB volume, HDD pool\n\n",
              seconds, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Table table({"system", "client ops", "backend ops", "ops amp",
               "client GiB", "backend GiB", "byte amp"});

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

    const DiskStats before = world.cluster->TotalStats();
    FioConfig fio;
    fio.pattern = FioConfig::Pattern::kRandWrite;
    fio.block_size = 16 * kKiB;
    fio.volume_size = volume;
    const DriverStats stats = RunFio(&world, disk, fio, 32, seconds);
    // Let writeback finish so all backend costs are attributed.
    if (system == 0) {
      std::optional<Status> drained;
      lsvd_sys.disk->Drain([&](Status s) { drained = s; });
      world.sim.Run();
    } else {
      world.sim.Run();
    }
    const DiskStats after = world.cluster->TotalStats();

    const double client_ops = static_cast<double>(stats.writes);
    const double backend_ops =
        static_cast<double>(after.write_ops - before.write_ops);
    const double client_bytes = static_cast<double>(stats.bytes_written);
    const double backend_bytes =
        static_cast<double>(after.write_bytes - before.write_bytes);
    table.AddRow({system == 0 ? "lsvd" : "rbd", Table::Fmt(client_ops, 0),
                  Table::Fmt(backend_ops, 0),
                  Table::Fmt(backend_ops / client_ops, 2),
                  Table::Fmt(client_bytes / 1e9, 2),
                  Table::Fmt(backend_bytes / 1e9, 2),
                  Table::Fmt(backend_bytes / client_bytes, 2)});
  }
  table.Print();
  std::printf("\npaper: RBD 6x ops and bytes; LSVD 0.25x ops, ~1.5x bytes "
              "(4,2 erasure code)\n");
  return 0;
}
