// google-benchmark microbenchmarks for LSVD's core data structures: the
// extent map (all three translation maps, §3.1/§6.1), the event engine, the
// simulated SSD's contents store, CRC32C, and the journal/object codecs.
// These justify the in-memory-map design decision (§6.1: ~24 bytes and
// sub-microsecond operations per entry) and track the hot-path CPU work
// (docs/PERF.md).
//
// Benchmarks report an "allocs_per_op" counter (heap allocations per
// iteration, via the operator-new hook below) so allocation regressions in
// the scheduler and map fast paths show up directly.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <new>

#include "src/blockdev/sim_ssd.h"
#include "src/lsvd/extent_map.h"
#include "src/lsvd/journal.h"
#include "src/lsvd/object_format.h"
#include "src/sim/simulator.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "src/util/units.h"

// Global operator-new replacement counting heap allocations. Counting is a
// single relaxed atomic add, cheap enough to leave on for every benchmark.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lsvd {
namespace {

// RAII: counts heap allocations across the timed loop and reports them as a
// per-iteration counter.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(g_alloc_count.load(std::memory_order_relaxed)) {}
  ~AllocCounter() {
    const uint64_t n =
        g_alloc_count.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(n) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

void BM_ExtentMapUpdate(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  Rng rng(1);
  // Pre-populate.
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0});
  }
  uint64_t seq = entries;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{seq++, 0});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapUpdate)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_ExtentMapLookup(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  Rng rng(2);
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0});
  }
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.Lookup(rng.Uniform(entries * 4) * 16 * kKiB, 64 * kKiB));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

// Out-param Lookup (the hot-path API): no result-vector allocation, and the
// map's last-extent hint turns repeated/sequential probes into O(1).
void BM_ExtentMapLookupOutParam(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  Rng rng(2);
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(rng.Uniform(entries * 4) * 16 * kKiB, 16 * kKiB,
               ObjTarget{i, 0});
  }
  ExtentMap<ObjTarget>::SegmentVec segs;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Lookup(rng.Uniform(entries * 4) * 16 * kKiB, 64 * kKiB, &segs);
    benchmark::DoNotOptimize(segs.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapLookupOutParam)->Arg(1000)->Arg(100000)->Arg(1000000);

// Sequential scan over adjacent extents — the hint's best case (streaming
// reads, GC victim scans, checkpoint encodes).
void BM_ExtentMapLookupSequential(benchmark::State& state) {
  const auto entries = static_cast<uint64_t>(state.range(0));
  ExtentMap<ObjTarget> map;
  for (uint64_t i = 0; i < entries; i++) {
    map.Update(i * 16 * kKiB, 16 * kKiB, ObjTarget{i, 0});
  }
  ExtentMap<ObjTarget>::SegmentVec segs;
  uint64_t next = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    map.Lookup(next * 16 * kKiB, 16 * kKiB, &segs);
    benchmark::DoNotOptimize(segs.size());
    next = (next + 1) % entries;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtentMapLookupSequential)->Arg(1000)->Arg(1000000);

// Event engine: schedule-then-drain churn with short delays — the shape of
// nearly all simulation traffic (device latencies, network hops). Exercises
// the calendar queue's near window and InlineFn's inline storage.
void BM_SimulatorNearEvents(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  Rng rng(3);
  uint64_t sink = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < batch; i++) {
      sim.At(sim.now() + 1 + static_cast<Nanos>(rng.Uniform(500 * 1000)),
             [&sink] { sink++; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorNearEvents)->Arg(64)->Arg(1024);

// Mixed near + far timers: far events (seconds out, e.g. GC ticks and retry
// backoffs) land in the overflow heap and must migrate into the calendar
// window without disturbing near-event throughput.
void BM_SimulatorMixedHorizon(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  Rng rng(4);
  uint64_t sink = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < batch; i++) {
      const bool far = (i & 7) == 0;  // 1 in 8 beyond the near window
      const Nanos delay = far ? FromSeconds(0.1 + 0.01 * (i & 63))
                              : 1 + static_cast<Nanos>(rng.Uniform(100 * 1000));
      sim.At(sim.now() + delay, [&sink] { sink++; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorMixedHorizon)->Arg(64)->Arg(1024);

// Simulated SSD contents: one write of real bytes at a random offset, one
// read of the same size elsewhere, a flush every 32 ops (the shape of journal
// appends, cache fills and reads, and barriers). Counts the host cost the
// device model adds to every simulated IO.
void BM_SimSsdWriteReadFlush(benchmark::State& state) {
  const auto size = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kCapacity = 32 * kMiB;
  Simulator sim;
  SimSsd ssd(&sim, kCapacity, SsdParams::Instant());
  std::vector<uint8_t> bytes(size);
  for (uint64_t i = 0; i < size; i++) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const Buffer data = Buffer::FromBytes(bytes);
  const uint64_t slots = kCapacity / size;
  Rng rng(5);
  // Pre-fill so reads and overwrites hit stored data.
  for (uint64_t i = 0; i < slots; i++) {
    ssd.Write(i * size, data, [](Status) {});
  }
  ssd.Flush([](Status) {});
  sim.Run();
  uint64_t ops = 0;
  uint64_t sink = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    ssd.Write(rng.Uniform(slots) * size, data, [](Status) {});
    ssd.Read(rng.Uniform(slots) * size, size,
             [&sink](Result<Buffer> r) { sink += r->size(); });
    if (++ops % 32 == 0) {
      ssd.Flush([](Status) {});
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_SimSsdWriteReadFlush)->Arg(4 * 1024)->Arg(64 * 1024);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_JournalEncode(benchmark::State& state) {
  JournalRecord rec;
  rec.seq = 1;
  const auto nexts = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < nexts; i++) {
    rec.extents.push_back({i * 16 * kKiB, 16 * kKiB});
  }
  rec.data = Buffer::Zeros(nexts * 16 * kKiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeJournalRecord(rec));
  }
}
BENCHMARK(BM_JournalEncode)->Arg(4)->Arg(32)->Arg(128);

void BM_ObjectHeaderDecode(benchmark::State& state) {
  DataObjectHeader header;
  header.seq = 7;
  const auto nexts = static_cast<size_t>(state.range(0));
  Buffer data;
  for (size_t i = 0; i < nexts; i++) {
    header.extents.push_back({i * 64 * kKiB, 16 * kKiB, 0, 0});
    data.AppendZeros(16 * kKiB);
  }
  const Buffer object = EncodeDataObject(header, data);
  for (auto _ : state) {
    DataObjectHeader out;
    benchmark::DoNotOptimize(DecodeDataObjectHeader(object, &out));
  }
}
BENCHMARK(BM_ObjectHeaderDecode)->Arg(16)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace lsvd

BENCHMARK_MAIN();
