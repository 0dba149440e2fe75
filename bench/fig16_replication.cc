// Figure 16 (+ §4.8): asynchronous replication by lazy object copying.
//
// A fileserver-style workload (hot/medium/cold file sets) writes to the
// primary object store; a replicator copies objects older than 60 s to a
// second store. Paper result shape: replica traffic tracks the virtual-disk
// write rate with a lag; garbage collection deletes some objects before they
// replicate (103 GB written vs 85 GB copied); the replica mounts to a
// consistent image via the standard recovery rules despite out-of-order
// arrival.
#include "bench/common.h"
#include "src/lsvd/replicator.h"
#include "src/workload/filebench.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "fig16_replication");
  const double seconds = ArgDouble(argc, argv, "seconds", 90.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 2.0);
  PrintHeader("fig16_replication",
              "Figure 16 — data transfer during asynchronous replication");
  std::printf("fileserver-style mix, %gs, %g GiB volume; copy objects older "
              "than 20 s (paper: 60 s)\n\n",
              seconds, vol_gib);

  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  World world(ClusterConfig::SsdPool());
  // The replica store lives on its own cluster + link (second datacenter).
  BackendCluster replica_cluster(&world.sim, ClusterConfig::HddPool());
  NetLink replica_link(&world.sim, NetParams{});
  SimObjectStore replica(&world.sim, &replica_cluster, &replica_link,
                         SimObjectStoreConfig{});

  LsvdConfig config = DefaultLsvdConfig(volume, kSmallCache);
  LsvdSystem sys = LsvdSystem::Create(&world, config);

  ReplicatorConfig rep_config;
  rep_config.volume_name = config.volume_name;
  rep_config.min_age = 20 * kSecond;
  rep_config.poll_interval = 5 * kSecond;
  Replicator replicator(&world.sim, sys.store.get(), &replica, rep_config);
  replicator.Start();

  FilebenchProfile fileserver = FilebenchProfile::Fileserver();
  fileserver.working_set = volume;
  // Some sync pressure so batches flow continuously.
  fileserver.writes_per_sync = 500;
  const Nanos t0 = world.sim.now();
  // Pace the workload so total writes ~= 2x the footprint over the run
  // (the paper writes 103 GB against large file sets; writing many times
  // the footprint would just hand everything to the GC before it ages in).
  const uint64_t byte_budget = 2 * volume;
  auto inner = MakeFilebenchGen(fileserver, volume, 21);
  auto written = std::make_shared<uint64_t>(0);
  auto paced = [inner, written, byte_budget](WorkloadOp* op) {
    if (*written >= byte_budget) {
      return false;
    }
    if (!inner(op)) {
      return false;
    }
    if (op->kind == WorkloadOp::Kind::kWrite) {
      *written += op->len;
    }
    return true;
  };
  Driver driver(&world.sim, sys.disk.get(), paced, 4,
                t0 + FromSeconds(seconds));
  driver.Run([] {});

  std::printf("%-8s %-16s %-18s %-16s\n", "t(s)", "vdisk MB/s",
              "primary put MB/s", "replica MB/s");
  uint64_t last_written = 0;
  uint64_t last_put = 0;
  uint64_t last_copied = 0;
  const int steps = static_cast<int>(seconds) + 60;
  for (int step = 0; step < steps; step++) {
    world.sim.RunUntil(t0 + (step + 1) * 5 * kSecond);
    const uint64_t written = driver.stats().bytes_written;
    const uint64_t put = sys.store->stats().put_bytes;
    const uint64_t copied = replicator.stats().bytes_copied;
    if (step % 2 == 1) {
      std::printf("%-8d %-16.1f %-18.1f %-16.1f\n", (step + 1) * 5,
                  static_cast<double>(written - last_written) / 5e6,
                  static_cast<double>(put - last_put) / 5e6,
                  static_cast<double>(copied - last_copied) / 5e6);
    }
    last_written = written;
    last_put = put;
    last_copied = copied;
    if (world.sim.empty()) {
      break;
    }
  }
  replicator.Stop();
  world.sim.Run();

  const double written_gb =
      static_cast<double>(driver.stats().bytes_written) / 1e9;
  const double copied_gb =
      static_cast<double>(replicator.stats().bytes_copied) / 1e9;
  std::printf("\ntotal written to virtual disk: %.1f GB; copied to replica: "
              "%.1f GB (%.0f%%)\n",
              written_gb, copied_gb, 100.0 * copied_gb / std::max(0.01, written_gb));
  std::printf("objects copied: %llu, skipped (GC deleted first): %llu\n",
              static_cast<unsigned long long>(replicator.stats().objects_copied),
              static_cast<unsigned long long>(
                  replicator.stats().objects_skipped_deleted));
  std::printf("paper: 103 GB written, 85 GB replicated; GC deletes some "
              "objects before they age in\n");

  // Mount the replica and verify it recovers consistently (§4.8's key
  // claim: the standard recovery strategy suffices).
  ClientHost replica_host(&world.sim, ClientHostConfig{});
  LsvdDisk mounted(&replica_host, &replica, config);
  std::optional<Status> mount_status;
  mounted.OpenCacheLost([&](Status s) { mount_status = s; });
  world.sim.Run();
  std::printf("replica mount: %s (recovered through object seq %llu of %llu "
              "written)\n",
              mount_status && mount_status->ok() ? "CONSISTENT" : "FAILED",
              static_cast<unsigned long long>(mounted.backend().applied_seq()),
              static_cast<unsigned long long>(
                  sys.disk->backend().applied_seq()));
  return mount_status && mount_status->ok() ? 0 : 1;
}
