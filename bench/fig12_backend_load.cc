// Figure 12 (+ §4.5): backend efficiency — total client IOPS vs mean backend
// disk utilization, for 1..32 virtual disks on one client machine, 16 KiB
// random writes at QD 32 each, HDD pool (config #2).
//
// Paper result shape: LSVD reaches ~50K IOPS with the backend disks ~10%
// busy (the client machine/SSD/NIC is the bottleneck); RBD peaks around 13K
// IOPS with the backend ~70% busy — a ~25x efficiency gap.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N", "max-disks=N"});
  PerfScope perf(argc, argv, "fig12_backend_load");
  const double seconds = ArgDouble(argc, argv, "seconds", 2.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 4.0);
  const int max_disks = static_cast<int>(ArgDouble(argc, argv, "max-disks", 16));
  PrintHeader("fig12_backend_load",
              "Figure 12 — client IOPS vs backend disk utilization, 1-32 "
              "virtual disks");
  std::printf("16 KiB randwrite QD32 per disk, %gs per point, %g GiB per "
              "volume, 62-HDD pool\n\n",
              seconds, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  Table table({"system", "vdisks", "total IOPS", "backend util %",
               "backend IOPS"});

  for (int system = 0; system < 2; system++) {
    const char* name = system == 0 ? "lsvd" : "rbd";
    for (int ndisks = 1; ndisks <= max_disks; ndisks *= 2) {
      World world(ClusterConfig::HddPool());
      std::vector<std::unique_ptr<SimObjectStore>> stores;
      std::vector<std::unique_ptr<LsvdDisk>> lsvd_disks;
      std::vector<std::unique_ptr<RbdDisk>> rbd_disks;
      std::vector<VirtualDisk*> disks;

      for (int d = 0; d < ndisks; d++) {
        if (system == 0) {
          LsvdConfig config = DefaultLsvdConfig(volume, 16 * kGiB / ndisks);
          config.volume_name = "vol" + std::to_string(d);
          stores.push_back(std::make_unique<SimObjectStore>(
              &world.sim, world.cluster.get(), world.backend_link.get(),
              SimObjectStoreConfig{}));
          auto disk = std::make_unique<LsvdDisk>(world.host.get(),
                                                 stores.back().get(), config);
          bool created = false;
          disk->Create([&](Status s) { created = s.ok(); });
          world.sim.Run();
          if (!created) {
            std::abort();
          }
          disks.push_back(disk.get());
          lsvd_disks.push_back(std::move(disk));
        } else {
          rbd_disks.push_back(std::make_unique<RbdDisk>(
              &world.sim, world.cluster.get(), world.backend_link.get(),
              volume, RbdConfig{}, static_cast<uint64_t>(d)));
          disks.push_back(rbd_disks.back().get());
        }
      }

      // Measure from a clean baseline (no preconditioning writes: they would
      // dominate the utilization window; the paper preconditions too but
      // measures steady state).
      const Nanos t0 = world.sim.now();
      const Nanos busy0 = world.cluster->TotalBusy();
      const DiskStats ops0 = world.cluster->TotalStats();

      std::vector<std::unique_ptr<Driver>> drivers;
      size_t remaining = disks.size();
      for (size_t d = 0; d < disks.size(); d++) {
        FioConfig fio;
        fio.pattern = FioConfig::Pattern::kRandWrite;
        fio.block_size = 16 * kKiB;
        fio.volume_size = volume;
        fio.seed = 100 + d;
        drivers.push_back(std::make_unique<Driver>(
            &world.sim, disks[d], MakeFioGen(fio), 32,
            t0 + FromSeconds(seconds)));
        drivers.back()->Run([&remaining] { remaining--; });
      }
      world.sim.Run();

      double iops = 0;
      for (const auto& driver : drivers) {
        iops += driver->stats().Iops();
      }
      const Nanos t1 = world.sim.now();
      const double util = world.cluster->MeanUtilization(busy0, t0, t1);
      const DiskStats ops1 = world.cluster->TotalStats();
      const double backend_iops =
          static_cast<double>(ops1.write_ops - ops0.write_ops) /
          ToSeconds(t1 - t0);
      table.AddRow({name, std::to_string(ndisks), Table::Fmt(iops, 0),
                    Table::Fmt(util * 100, 1), Table::Fmt(backend_iops, 0)});
    }
  }
  table.Print();
  std::printf("\npaper: LSVD 47-50K IOPS @ ~10%% busy; RBD ~13K IOPS @ ~70%% "
              "busy with 32 disks\n");
  return 0;
}
