// Table 5: simulated LSVD batching + garbage collection on (synthetic
// stand-ins for) the CloudPhysics traces.
//
// For each trace and each algorithm variant — no-merge, merge (within-batch
// coalescing), merge+defrag (plug <=8 KiB holes while copying) — reports
// total writes, final extent-map size, write amplification, and merge ratio,
// side by side with the paper's numbers. 32 MiB batches, 70/75% thresholds,
// as in §4.6.
#include "bench/common.h"
#include "src/lsvd/gc_sim.h"
#include "src/workload/trace_gen.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

struct PaperRow {
  const char* name;
  double gb;
  double extents_nomerge_m, extents_merge_m, extents_defrag_m;
  double waf_nomerge, waf_merge, waf_defrag;
  double merge_ratio;
};

constexpr PaperRow kPaper[] = {
    {"w10", 484, 3.88, 3.51, 3.51, 1.11, 1.10, 1.10, 0.01},
    {"w04", 1786, 1.93, 1.91, 1.91, 1.52, 1.44, 1.44, 0.21},
    {"w66", 49, 0.02, 0.02, 0.02, 1.97, 1.35, 1.36, 0.55},
    {"w01", 272, 5.67, 5.47, 2.78, 1.20, 1.18, 1.20, 0.11},
    {"w07", 85, 0.70, 0.69, 0.55, 1.82, 1.76, 1.83, 0.06},
    {"w31", 321, 0.90, 0.61, 0.61, 1.03, 1.02, 1.02, 0.02},
    {"w59", 60, 0.26, 0.26, 0.26, 1.75, 1.65, 1.64, 0.14},
    {"w41", 127, 0.59, 0.58, 0.05, 1.44, 1.14, 1.14, 0.71},
    {"w05", 389, 6.80, 3.06, 3.06, 1.08, 1.08, 1.08, 0.00},
};

GcSimResult RunTrace(const TraceProfile& profile, uint64_t scale, bool merge,
                     bool defrag) {
  GcSimConfig config;
  config.batch_bytes = 32 * kMiB;
  config.merge = merge;
  config.defrag = defrag;
  GcSimulator sim(config);
  auto stream = MakeTraceStream(profile, scale, 17);
  uint64_t vlba = 0;
  uint64_t len = 0;
  while (stream(&vlba, &len)) {
    sim.Write(vlba, len);
  }
  return sim.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"scale=N"});
  PerfScope perf(argc, argv, "tbl05_gc_traces");
  const auto scale = static_cast<uint64_t>(ArgDouble(argc, argv, "scale", 48));
  PrintHeader("tbl05_gc_traces",
              "Table 5 — simulated GC on CloudPhysics-like traces");
  std::printf("synthetic trace stand-ins (see DESIGN.md substitutions), "
              "volume scaled 1/%llu; extent counts scale accordingly\n\n",
              static_cast<unsigned long long>(scale));

  Table table({"trace", "writes GB", "extents K (nomerge/merge/defrag)",
               "WAF (nomerge/merge/defrag)", "merge ratio",
               "paper WAF (nm/m)", "paper merge"});

  for (const auto& profile : TraceProfile::Table5()) {
    const GcSimResult nomerge = RunTrace(profile, scale, false, false);
    const GcSimResult merge = RunTrace(profile, scale, true, false);
    const GcSimResult defrag = RunTrace(profile, scale, true, true);

    const PaperRow* paper = nullptr;
    for (const auto& row : kPaper) {
      if (profile.name == row.name) {
        paper = &row;
      }
    }
    char extents[96];
    std::snprintf(extents, sizeof(extents), "%.1f / %.1f / %.1f",
                  nomerge.extent_count / 1e3, merge.extent_count / 1e3,
                  defrag.extent_count / 1e3);
    char wafs[96];
    std::snprintf(wafs, sizeof(wafs), "%.2f / %.2f / %.2f", nomerge.waf(),
                  merge.waf(), defrag.waf());
    char paper_waf[48];
    std::snprintf(paper_waf, sizeof(paper_waf), "%.2f / %.2f",
                  paper ? paper->waf_nomerge : 0, paper ? paper->waf_merge : 0);
    table.AddRow({profile.name,
                  Table::Fmt(static_cast<double>(merge.client_bytes) / 1e9, 1),
                  extents, wafs, Table::Fmt(merge.merge_ratio(), 2),
                  paper_waf, Table::Fmt(paper ? paper->merge_ratio : 0, 2)});
  }
  table.Print();
  std::printf("\npaper extent counts are for full-size traces "
              "(M entries); scaled runs shrink proportionally.\n");
  std::printf("key shapes: w66/w41 coalesce most bytes; w01 defrag halves "
              "the map; w05 merge halves extents at zero merge ratio.\n");
  return 0;
}
