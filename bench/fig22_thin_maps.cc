// Figure 22 (repo extension, no direct paper counterpart): huge thin
// volumes — the cost of the virtual-to-object translation map, and what
// TRIM/discard buys the collector (DESIGN.md §13).
//
// The paper sizes its volumes so the flat extent map always fits in RAM
// (§3.4 reports ~1 GB of map per 100 TB of 100%-sequential volume, growing
// ~30x under fragmentation). This bench quantifies the alternative shipped
// here for thin volumes whose *address space* is 10x larger than the mapped
// data:
//
//   1. map bytes per mapped TiB — flat ExtentMap vs the compressed
//      two-level PagedExtentMap (LsvdConfig::map_resident_bytes), same
//      extent population on a sparse volume;
//   2. the map-miss read penalty the paged form trades for that memory:
//      page loads per 1k random lookups under a tight resident budget, and
//      the wall-clock ratio against the flat map;
//   3. steady-state WAF with and without discard: a file-churn workload on
//      the GC simulator where deletes either punch the map immediately
//      (TRIM) or leave stale blocks "live" until the address is reused;
//   4. recovery: wall time and resident map footprint to rebuild the object
//      map from a checkpoint extent list, at 1x and 10x volume spans.
//
// `--smoke` shrinks every population for the run_all.sh sweep; the full run
// is what the ISSUE-8 acceptance numbers (>= 4x map-bytes reduction,
// discard lowering WAF) refer to.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/util/rng.h"
#include "src/lsvd/extent_map.h"
#include "src/lsvd/gc_sim.h"
#include "src/lsvd/paged_extent_map.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

struct Params {
  uint64_t base_span;      // 1x volume address space
  uint64_t span_mult;      // the "10x larger sparse volume"
  uint64_t extents;        // mapped extents on the 10x volume
  uint64_t cluster;        // extents per allocation cluster (file locality)
  uint64_t resident_budget;
  uint64_t page_span;
  uint64_t lookups;        // random reads for the miss-penalty section
  // File-churn WAF experiment.
  uint64_t slots;
  uint64_t live_slots;
  uint64_t file_bytes;
  uint64_t churn_ops;
  uint64_t batch_bytes;
};

Params FullParams() {
  Params p;
  p.base_span = 1ull * 1024 * kGiB;  // 1 TiB address space, 10 TiB sparse
  p.span_mult = 10;
  p.extents = 400000;
  p.cluster = 128;
  p.resident_budget = 512 * kKiB;
  p.page_span = 256 * kMiB;
  p.lookups = 100000;
  p.slots = 1024;
  p.live_slots = 256;
  p.file_bytes = 256 * kKiB;
  p.churn_ops = 6000;
  p.batch_bytes = 4 * kMiB;
  return p;
}

Params SmokeParams() {
  Params p;
  p.base_span = 2ull * kGiB;  // 2 GiB address space, 20 GiB sparse
  p.span_mult = 10;
  p.extents = 30000;
  p.cluster = 128;
  p.resident_budget = 64 * kKiB;
  p.page_span = 64 * kMiB;
  p.lookups = 20000;
  p.slots = 256;
  p.live_slots = 64;
  p.file_bytes = 64 * kKiB;
  p.churn_ops = 1200;
  p.batch_bytes = 1 * kMiB;
  return p;
}

// Synthesizes a thin-volume extent population: `count` small extents in
// clusters of `cluster` (file-allocator locality), scattered uniformly over
// `span` bytes. Targets walk forward through 4 MiB objects, the layout a
// sequence of sealed write batches produces.
std::vector<MapExtent<ObjTarget>> MakePopulation(uint64_t span, uint64_t count,
                                                 uint64_t cluster,
                                                 uint64_t seed) {
  std::vector<MapExtent<ObjTarget>> out;
  out.reserve(count);
  Rng rng(seed);
  constexpr uint64_t kObjectBytes = 4 * kMiB;
  uint64_t seq = 1;
  uint64_t offset = 0;
  uint64_t pos = 0;
  uint64_t in_cluster = 0;
  while (out.size() < count) {
    if (in_cluster == 0) {
      pos = (rng.Uniform(span / kBlockSize)) * kBlockSize;
      in_cluster = cluster;
    }
    const uint64_t len = (1 + rng.Uniform(4)) * kBlockSize;  // 4-16 KiB
    if (pos + len > span) {
      in_cluster = 0;
      continue;
    }
    if (offset + len > kObjectBytes) {
      seq++;
      offset = 0;
    }
    out.push_back({pos, len, ObjTarget{seq, offset}});
    offset += len;
    // 8-64 KiB hole to the next extent in the cluster, so nothing merges.
    pos += len + (2 + rng.Uniform(15)) * kBlockSize;
    in_cluster--;
  }
  return out;
}

double Ms(std::chrono::steady_clock::time_point t0,
          std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// The file-churn WAF experiment: `slots` fixed-size file slots, `live`
// kept allocated; every op deletes one live file and writes a fresh one
// into a free slot. With `discard` the delete trims immediately; without,
// the stale blocks stay mapped (and get copied by GC as live data) until
// the slot is reused.
GcSimResult RunChurn(const Params& p, bool discard) {
  GcSimConfig config;
  config.batch_bytes = p.batch_bytes;
  config.gc_low_watermark = 0.85;
  config.gc_high_watermark = 0.89;
  GcSimulator sim(config);

  Rng rng(7);
  std::vector<uint8_t> live(p.slots, 0);
  std::vector<uint64_t> live_list;
  uint64_t live_count = 0;
  while (live_count < p.live_slots) {
    const uint64_t s = rng.Uniform(p.slots);
    if (live[s]) {
      continue;
    }
    live[s] = 1;
    live_list.push_back(s);
    live_count++;
    sim.Write(s * p.file_bytes, p.file_bytes);
  }
  for (uint64_t op = 0; op < p.churn_ops; op++) {
    // Delete a random live file...
    const uint64_t di = rng.Uniform(live_list.size());
    const uint64_t dead = live_list[di];
    live[dead] = 0;
    if (discard) {
      sim.Trim(dead * p.file_bytes, p.file_bytes);
    }
    // ...and allocate a fresh one in a random free slot.
    uint64_t slot;
    do {
      slot = rng.Uniform(p.slots);
    } while (live[slot]);
    live[slot] = 1;
    live_list[di] = slot;
    sim.Write(slot * p.file_bytes, p.file_bytes);
  }
  return sim.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"smoke"});
  PerfScope perf(argc, argv, "fig22_thin_maps");
  const bool smoke = ArgFlag(argc, argv, "smoke");
  const Params p = smoke ? SmokeParams() : FullParams();
  PrintHeader("fig22_thin_maps",
              "extension — huge thin volumes: paged extent maps and "
              "TRIM/discard (cf. §3.4's map-size estimate)");
  const uint64_t big_span = p.base_span * p.span_mult;
  std::printf("sparse volume: %s address space (%llux the %s base), "
              "%s extents in clusters of %llu%s\n\n",
              Table::FmtBytes(big_span).c_str(),
              static_cast<unsigned long long>(p.span_mult),
              Table::FmtBytes(p.base_span).c_str(),
              Table::FmtCount(p.extents).c_str(),
              static_cast<unsigned long long>(p.cluster),
              smoke ? " [smoke]" : "");

  // --- 1. map bytes per mapped TiB, flat vs paged -------------------------
  const auto population = MakePopulation(big_span, p.extents, p.cluster, 42);
  ExtentMap<ObjTarget> flat;
  PagedExtentMap<ObjTarget> paged(p.resident_budget, p.page_span);
  for (const auto& e : population) {
    flat.Update(e.start, e.len, e.target, nullptr);
    paged.Update(e.start, e.len, e.target, nullptr);
  }
  const double mapped_tib =
      static_cast<double>(flat.mapped_bytes()) / (1024.0 * kGiB);
  const double flat_bytes = static_cast<double>(flat.MemoryBytes());
  const double paged_bytes = static_cast<double>(paged.MemoryBytes());
  const double reduction = flat_bytes / paged_bytes;
  Table mtable({"map", "extents", "map bytes", "bytes/mapped TiB",
                "resident", "packed"});
  mtable.AddRow({"flat", Table::FmtCount(flat.extent_count()),
                 Table::FmtBytes(flat.MemoryBytes()),
                 Table::FmtBytes(static_cast<uint64_t>(flat_bytes /
                                                       mapped_tib)),
                 Table::FmtBytes(flat.MemoryBytes()), "-"});
  mtable.AddRow({"paged", Table::FmtCount(paged.extent_count()),
                 Table::FmtBytes(paged.MemoryBytes()),
                 Table::FmtBytes(static_cast<uint64_t>(paged_bytes /
                                                       mapped_tib)),
                 Table::FmtBytes(paged.ResidentBytes()),
                 Table::FmtBytes(paged.PackedBytes())});
  mtable.Print();
  std::printf("mapped data: %s over %s; paged map reduction: %.1fx "
              "(budget %s, %s pages, %s touched)\n\n",
              Table::FmtBytes(flat.mapped_bytes()).c_str(),
              Table::FmtBytes(big_span).c_str(), reduction,
              Table::FmtBytes(p.resident_budget).c_str(),
              Table::FmtBytes(p.page_span).c_str(),
              Table::FmtCount(paged.page_count()).c_str());

  // --- 2. map-miss read penalty under the resident budget -----------------
  // Random single-block lookups across the whole sparse span: nearly every
  // one lands on a cold page, so this is the worst-case unpack penalty.
  {
    Rng rng(99);
    std::vector<uint64_t> addrs(p.lookups);
    for (auto& a : addrs) {
      a = rng.Uniform(big_span / kBlockSize) * kBlockSize;
    }
    uint64_t sink = 0;
    const auto f0 = std::chrono::steady_clock::now();
    for (const uint64_t a : addrs) {
      sink += flat.LookupOne(a).has_value();
    }
    const auto f1 = std::chrono::steady_clock::now();
    const uint64_t loads_before = paged.page_loads();
    const auto g0 = std::chrono::steady_clock::now();
    for (const uint64_t a : addrs) {
      sink += paged.LookupOne(a).has_value();
    }
    const auto g1 = std::chrono::steady_clock::now();
    const uint64_t loads = paged.page_loads() - loads_before;
    const double flat_ns = Ms(f0, f1) * 1e6 / static_cast<double>(p.lookups);
    const double paged_ns = Ms(g0, g1) * 1e6 / static_cast<double>(p.lookups);
    std::printf("map-miss penalty: %s random lookups, %s page loads "
                "(%.0f per 1k lookups)\n",
                Table::FmtCount(p.lookups).c_str(),
                Table::FmtCount(loads).c_str(),
                1000.0 * static_cast<double>(loads) /
                    static_cast<double>(p.lookups));
    std::printf("  flat %.0f ns/lookup, paged %.0f ns/lookup -> %.1fx "
                "penalty (hits: %llu)\n\n",
                flat_ns, paged_ns, flat_ns > 0 ? paged_ns / flat_ns : 0.0,
                static_cast<unsigned long long>(sink));
  }

  // --- 3. WAF with and without discard ------------------------------------
  const GcSimResult keep = RunChurn(p, /*discard=*/false);
  const GcSimResult trim = RunChurn(p, /*discard=*/true);
  Table wtable({"deletes", "WAF", "gc copied", "trimmed", "objects",
                "map extents"});
  wtable.AddRow({"kept mapped", Table::Fmt(keep.waf(), 3),
                 Table::FmtBytes(keep.gc_copied_bytes),
                 Table::FmtBytes(keep.trimmed_bytes),
                 Table::FmtCount(keep.objects_created),
                 Table::FmtCount(keep.extent_count)});
  wtable.AddRow({"discarded", Table::Fmt(trim.waf(), 3),
                 Table::FmtBytes(trim.gc_copied_bytes),
                 Table::FmtBytes(trim.trimmed_bytes),
                 Table::FmtCount(trim.objects_created),
                 Table::FmtCount(trim.extent_count)});
  wtable.Print();
  std::printf("file churn: %s slots, %s live, %s files, %s ops; discard "
              "cuts WAF %.3f -> %.3f (%.0f%% of the GC copy traffic was "
              "stale data)\n\n",
              Table::FmtCount(p.slots).c_str(),
              Table::FmtCount(p.live_slots).c_str(),
              Table::FmtBytes(p.file_bytes).c_str(),
              Table::FmtCount(p.churn_ops).c_str(), keep.waf(), trim.waf(),
              keep.gc_copied_bytes == 0
                  ? 0.0
                  : 100.0 *
                        (1.0 - static_cast<double>(trim.gc_copied_bytes) /
                                   static_cast<double>(keep.gc_copied_bytes)));

  // --- 4. recovery on the 10x sparse volume -------------------------------
  // Rebuild the object map from a checkpoint extent list (what
  // BackendStore::Recover does after reading the checkpoint object), at the
  // base span and at 10x, flat vs paged.
  Table rtable({"volume", "map", "extents", "rebuild ms", "resident after",
                "evictions"});
  for (const uint64_t mult : {uint64_t{1}, p.span_mult}) {
    const auto ext = MakePopulation(p.base_span * mult, p.extents * mult /
                                        p.span_mult, p.cluster, 17 + mult);
    std::vector<MapExtent<ObjTarget>> sorted = ext;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    const std::string label =
        Table::FmtBytes(p.base_span * mult) + (mult == 1 ? " (1x)" : " (10x)");

    ExtentMap<ObjTarget> fmap;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& e : sorted) {
      fmap.Update(e.start, e.len, e.target, nullptr);
    }
    const auto t1 = std::chrono::steady_clock::now();
    rtable.AddRow({label, "flat", Table::FmtCount(fmap.extent_count()),
                   Table::Fmt(Ms(t0, t1), 1),
                   Table::FmtBytes(fmap.MemoryBytes()), "-"});

    PagedExtentMap<ObjTarget> pmap(p.resident_budget, p.page_span);
    const auto t2 = std::chrono::steady_clock::now();
    for (const auto& e : sorted) {
      pmap.Update(e.start, e.len, e.target, nullptr);
    }
    const auto t3 = std::chrono::steady_clock::now();
    rtable.AddRow({label, "paged", Table::FmtCount(pmap.extent_count()),
                   Table::Fmt(Ms(t2, t3), 1),
                   Table::FmtBytes(pmap.ResidentBytes()),
                   Table::FmtCount(pmap.page_evictions())});
  }
  rtable.Print();
  std::printf("\nkey shapes: the paged map holds map bytes per mapped TiB "
              ">= 4x below the flat map on the sparse 10x volume and keeps "
              "its resident footprint at the configured budget through "
              "recovery; the price is the reported cold-page unpack penalty "
              "on random reads. Discard keeps deleted data out of the "
              "cleaner, cutting steady-state WAF.\n");

  GlobalMapResidentBytes() = paged.ResidentBytes();
  if (!smoke && reduction < 4.0) {
    std::fprintf(stderr, "fig22: expected >= 4x map reduction, got %.2fx\n",
                 reduction);
    return 1;
  }
  return 0;
}
