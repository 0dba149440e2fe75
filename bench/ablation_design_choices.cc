// Ablations of the design choices discussed in the paper's §3/§6:
//
//   - batch size (the paper uses 8 or 32 MiB objects),
//   - write-cache / read-cache split of the SSD (~20/80 in the prototype),
//   - the prototype's kernel/user SSD pass-through (§4.7 "The Bad": data
//     crosses the kernel boundary via the SSD; the successor removes this),
//   - within-batch write coalescing (§3.1).
//
// Workload: 16 KiB random writes at QD 32 with a small cache (so the full
// write path, including writeback, is exercised).
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

double MeasureMbps(LsvdConfig config, double seconds) {
  World world(ClusterConfig::SsdPool());
  LsvdSystem sys = LsvdSystem::Create(&world, std::move(config));
  Precondition(&world, sys.disk.get());
  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kRandWrite;
  fio.block_size = 16 * kKiB;
  fio.volume_size = sys.disk->size();
  return RunFio(&world, sys.disk.get(), fio, 32, seconds)
             .WriteThroughputBps() /
         1e6;
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"seconds=N", "volume-gib=N"});
  PerfScope perf(argc, argv, "ablation_design_choices");
  const double seconds = ArgDouble(argc, argv, "seconds", 8.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib", 4.0);
  PrintHeader("ablation_design_choices",
              "§3/§6 design-choice ablations (16 KiB randwrite QD32, "
              "writeback-bound small cache)");
  const auto volume = static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));
  // Scaled small cache (cf. fig09) so the run reaches the writeback-bound
  // regime where these knobs matter.
  const auto small_cache =
      static_cast<uint64_t>(std::max(0.4, 5.0 * vol_gib / 80.0) * 1e9);
  const LsvdConfig base = DefaultLsvdConfig(volume, small_cache);

  Table table({"variant", "MB/s", "vs default"});
  const double baseline = MeasureMbps(base, seconds);
  table.AddRow({"default (8 MiB batch, 20/80 split, pass-through on, "
                "coalesce on)",
                Table::Fmt(baseline, 1), "1.00"});

  {
    LsvdConfig c = base;
    c.batch_bytes = 32 * kMiB;
    const double v = MeasureMbps(c, seconds);
    table.AddRow({"batch 32 MiB", Table::Fmt(v, 1),
                  Table::Fmt(v / baseline, 2)});
  }
  {
    LsvdConfig c = base;
    c.batch_bytes = kMiB;
    const double v = MeasureMbps(c, seconds);
    table.AddRow({"batch 1 MiB (more objects, more per-PUT overhead)",
                  Table::Fmt(v, 1), Table::Fmt(v / baseline, 2)});
  }
  {
    LsvdConfig c = base;
    // 50/50 split: smaller read cache, bigger log.
    const uint64_t total = c.write_cache_size + c.read_cache_size;
    c.write_cache_size = total / 2 / kBlockSize * kBlockSize;
    c.read_cache_size = (total - c.write_cache_size) / kBlockSize * kBlockSize;
    const double v = MeasureMbps(c, seconds);
    table.AddRow({"50/50 cache split", Table::Fmt(v, 1),
                  Table::Fmt(v / baseline, 2)});
  }
  {
    LsvdConfig c = base;
    c.pass_through_ssd = false;
    const double v = MeasureMbps(c, seconds);
    table.AddRow({"no SSD pass-through (the planned userspace rewrite, "
                  "§6.2)",
                  Table::Fmt(v, 1), Table::Fmt(v / baseline, 2)});
  }
  {
    LsvdConfig c = base;
    c.coalesce_within_batch = false;
    const double v = MeasureMbps(c, seconds);
    table.AddRow({"no within-batch coalescing", Table::Fmt(v, 1),
                  Table::Fmt(v / baseline, 2)});
  }
  table.Print();
  std::printf("\nexpected: larger batches amortize PUT costs; removing the "
              "pass-through frees SSD bandwidth (§4.7); coalescing matters "
              "for overwrite-heavy workloads rather than uniform random\n");
  return 0;
}
