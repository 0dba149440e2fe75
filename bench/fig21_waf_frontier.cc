// Figure 21 (repo extension, no direct paper counterpart): the WAF
// frontier — steady-state write amplification as a function of the backend
// space utilization the collector is asked to maintain, for the three GC
// victim-selection policies (docs/GC.md; DESIGN.md §11).
//
// Each point pins the collector's watermarks at a target utilization
// (low = target, high = target + 0.04) and replays a Table-5 trace
// stand-in with cold segregation enabled, so the only variable per column
// is how victims are scored:
//   - greedy:       least-utilized object (the paper's collector),
//   - cost-benefit: Sprite-LFS (1-u)(1+a)/(1+u) over the stable age a —
//                   waits for hot objects to empty, pays higher-u
//                   cleanings for cold ones,
//   - age-bucketed: coarse log2 stable-age buckets, utilization tie-break.
// The expected shape is the classic LFS result: the policies agree at low
// utilization, and cost-benefit pulls ahead of greedy as the target rises
// past ~85%, where picking the wrong victim means recopying hot data.
//
// A second sweep models a zoned/SMR-style backend (GcSimConfig::zone_bytes):
// objects pack into 128 MiB sequential-only zones, the cleaner relocates a
// whole zone's live data into the cold stream and resets it. Dead bytes
// stranded in a zone count against utilization, so WAF is strictly worse
// than the object-granular frontier at the same target.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/lsvd/gc_sim.h"
#include "src/workload/trace_gen.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

// Trace profiles with enough long-term overwrite pressure for victim
// selection to matter (the all-profiles sweep is tbl05's job).
constexpr const char* kProfiles[] = {"w04", "w07", "w66", "w31"};

constexpr GcPolicyKind kPolicies[] = {GcPolicyKind::kGreedy,
                                      GcPolicyKind::kCostBenefit,
                                      GcPolicyKind::kAgeBucketed};

constexpr double kUtils[] = {0.70, 0.75, 0.80, 0.85, 0.90, 0.95};

GcSimResult RunPoint(const TraceProfile& profile, uint64_t scale,
                     GcPolicyKind policy, double util, uint64_t zone_bytes) {
  GcSimConfig config;
  config.batch_bytes = 32 * kMiB;
  config.gc_low_watermark = util;
  config.gc_high_watermark = std::min(util + 0.04, 0.99);
  config.policy = policy;
  config.segregate_cold = true;
  config.zone_bytes = zone_bytes;
  GcSimulator sim(config);
  auto stream = MakeTraceStream(profile, scale, 17);
  uint64_t vlba = 0;
  uint64_t len = 0;
  while (stream(&vlba, &len)) {
    sim.Write(vlba, len);
  }
  return sim.Finish();
}

const char* BestName(const double wafs[3]) {
  int best = 0;
  for (int i = 1; i < 3; i++) {
    if (wafs[i] < wafs[best]) {
      best = i;
    }
  }
  return GcPolicyKindName(kPolicies[best]);
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"scale=N"});
  PerfScope perf(argc, argv, "fig21_waf_frontier");
  const auto scale = static_cast<uint64_t>(ArgDouble(argc, argv, "scale", 48));
  PrintHeader("fig21_waf_frontier",
              "extension — WAF vs. utilization frontier per GC policy "
              "(cf. §4.6 and the Sprite-LFS cost-benefit cleaner)");
  std::printf("synthetic trace stand-ins, volume scaled 1/%llu; cold "
              "segregation on; watermarks = (target, target+0.04)\n\n",
              static_cast<unsigned long long>(scale));

  std::vector<TraceProfile> profiles;
  for (const auto& profile : TraceProfile::Table5()) {
    for (const char* want : kProfiles) {
      if (profile.name == want) {
        profiles.push_back(profile);
      }
    }
  }

  Table table({"trace", "util target", "WAF greedy", "WAF cost-benefit",
               "WAF age-bucketed", "best"});
  int high_points = 0;       // frontier points with target >= 0.85
  int high_cb_wins = 0;      // ...where cost-benefit strictly beats greedy
  int high_cb_not_worse = 0; // ...where cost-benefit is <= greedy
  for (const auto& profile : profiles) {
    for (const double util : kUtils) {
      double wafs[3];
      for (int p = 0; p < 3; p++) {
        wafs[p] = RunPoint(profile, scale, kPolicies[p], util, 0).waf();
      }
      if (util >= 0.85) {
        high_points++;
        if (wafs[1] < wafs[0]) {
          high_cb_wins++;
        }
        if (wafs[1] <= wafs[0]) {
          high_cb_not_worse++;
        }
      }
      table.AddRow({profile.name, Table::Fmt(util, 2), Table::Fmt(wafs[0], 3),
                    Table::Fmt(wafs[1], 3), Table::Fmt(wafs[2], 3),
                    BestName(wafs)});
    }
  }
  table.Print();
  std::printf("\nfrontier points at util >= 0.85: %d; cost-benefit < greedy "
              "on %d, <= greedy on %d\n",
              high_points, high_cb_wins, high_cb_not_worse);

  // Zoned/SMR-style backend: 128 MiB sequential-only zones (4 batches),
  // whole-zone relocate-and-reset reclaim.
  const uint64_t zone_bytes = 128 * kMiB;
  std::printf("\nzoned/SMR profile — %llu MiB zones, whole-zone reclaim "
              "(trace w04):\n",
              static_cast<unsigned long long>(zone_bytes / kMiB));
  Table ztable({"util target", "WAF greedy", "WAF cost-benefit",
                "WAF age-bucketed", "zones reset (g/cb/ab)"});
  const TraceProfile* zoned_profile = nullptr;
  for (const auto& profile : profiles) {
    if (profile.name == "w04") {
      zoned_profile = &profile;
    }
  }
  if (zoned_profile != nullptr) {
    for (const double util : kUtils) {
      GcSimResult r[3];
      for (int p = 0; p < 3; p++) {
        r[p] = RunPoint(*zoned_profile, scale, kPolicies[p], util, zone_bytes);
      }
      char resets[64];
      std::snprintf(resets, sizeof(resets), "%llu / %llu / %llu",
                    static_cast<unsigned long long>(r[0].zones_reset),
                    static_cast<unsigned long long>(r[1].zones_reset),
                    static_cast<unsigned long long>(r[2].zones_reset));
      ztable.AddRow({Table::Fmt(util, 2), Table::Fmt(r[0].waf(), 3),
                     Table::Fmt(r[1].waf(), 3), Table::Fmt(r[2].waf(), 3),
                     resets});
    }
    ztable.Print();
  }

  std::printf("\nkey shapes: policies converge at low targets and on "
              "coalescing-dominated traces (w66/w07); cost-benefit beats "
              "greedy at 0.85-0.90 on w04 and across the zoned sweep; "
              "zoned reclaim amplifies every policy (stranded dead "
              "space).\n");
  return 0;
}
