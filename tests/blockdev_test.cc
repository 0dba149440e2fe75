// Unit tests for the simulated client SSD: data integrity, durability rules,
// crash injection, and the sequential-vs-random service model.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/blockdev/sim_ssd.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace lsvd {
namespace {

Buffer Pattern(uint64_t len, uint8_t seed) {
  std::vector<uint8_t> bytes(len);
  for (uint64_t i = 0; i < len; i++) {
    bytes[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return Buffer::FromBytes(bytes);
}

// Synchronous wrappers that drive the simulator to completion.
Status WriteSync(Simulator* sim, SimSsd* ssd, uint64_t off, Buffer data) {
  std::optional<Status> result;
  ssd->Write(off, std::move(data), [&](Status s) { result = s; });
  sim->Run();
  return *result;
}

Result<Buffer> ReadSync(Simulator* sim, SimSsd* ssd, uint64_t off,
                        uint64_t len) {
  std::optional<Result<Buffer>> result;
  ssd->Read(off, len, [&](Result<Buffer> r) { result = std::move(r); });
  sim->Run();
  return std::move(*result);
}

Status FlushSync(Simulator* sim, SimSsd* ssd) {
  std::optional<Status> result;
  ssd->Flush([&](Status s) { result = s; });
  sim->Run();
  return *result;
}

TEST(SimSsd, WriteThenReadRoundTrips) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  Buffer data = Pattern(8192, 3);
  ASSERT_TRUE(WriteSync(&sim, &ssd, 4096, data).ok());
  auto r = ReadSync(&sim, &ssd, 4096, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST(SimSsd, UnwrittenReadsAsZeros) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
}

TEST(SimSsd, RejectsUnalignedAndOutOfRange) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  EXPECT_EQ(WriteSync(&sim, &ssd, 100, Buffer::Zeros(4096)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteSync(&sim, &ssd, 0, Buffer::Zeros(100)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteSync(&sim, &ssd, kMiB, Buffer::Zeros(4096)).code(),
            StatusCode::kOutOfRange);
  auto r = ReadSync(&sim, &ssd, kMiB - 4096, 8192);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(SimSsd, PowerFailLosesUnflushedWrites) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  Buffer flushed = Pattern(4096, 1);
  Buffer unflushed = Pattern(4096, 2);
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, flushed).ok());
  ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
  ASSERT_TRUE(WriteSync(&sim, &ssd, 4096, unflushed).ok());

  ssd.PowerFail();

  auto r0 = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(*r0, flushed);  // survived: was flushed
  auto r1 = ReadSync(&sim, &ssd, 4096, 4096);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->IsAllZeros());  // lost: never flushed
}

TEST(SimSsd, PowerFailDuringFlushDoesNotPromote) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::P3700());
  bool wrote = false;
  ssd.Write(0, Pattern(4096, 9), [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  sim.Run();
  ASSERT_TRUE(wrote);
  // Start a flush but fail power before it completes.
  ssd.Flush([](Status) {});
  ssd.PowerFail();
  sim.Run();
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
}

TEST(SimSsd, DiscardAllLosesEverything) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::Instant());
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, Pattern(4096, 5)).ok());
  ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
  ssd.DiscardAll();
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAllZeros());
}

TEST(SimSsd, SequentialWritesFasterThanRandom) {
  Simulator sim;
  SsdParams params = SsdParams::P3700();
  SimSsd ssd(&sim, kGiB, params);
  Rng rng(11);

  // 1000 sequential 4K writes.
  Nanos t0 = sim.now();
  int remaining = 1000;
  for (int i = 0; i < 1000; i++) {
    ssd.Write(static_cast<uint64_t>(i) * 4096, Buffer::Zeros(4096),
              [&](Status s) {
                ASSERT_TRUE(s.ok());
                remaining--;
              });
  }
  sim.Run();
  ASSERT_EQ(remaining, 0);
  const Nanos seq_time = sim.now() - t0;

  // 1000 random 4K writes.
  t0 = sim.now();
  remaining = 1000;
  for (int i = 0; i < 1000; i++) {
    const uint64_t block = rng.Uniform(kGiB / 4096);
    ssd.Write(block * 4096, Buffer::Zeros(4096), [&](Status s) {
      ASSERT_TRUE(s.ok());
      remaining--;
    });
  }
  sim.Run();
  ASSERT_EQ(remaining, 0);
  const Nanos rand_time = sim.now() - t0;

  EXPECT_LT(seq_time * 3, rand_time);
  EXPECT_GT(ssd.stats().sequential_writes, 900u);
}

TEST(SimSsd, RandomWriteIopsNearRated) {
  Simulator sim;
  SimSsd ssd(&sim, kGiB, SsdParams::P3700());
  Rng rng(13);
  constexpr int kOps = 20000;
  int done = 0;
  // Closed loop at queue depth 32.
  std::function<void()> issue = [&]() {
    if (done + 32 > kOps) {
      return;
    }
    const uint64_t block = rng.Uniform(kGiB / 4096);
    ssd.Write(block * 4096, Buffer::Zeros(4096), [&](Status s) {
      ASSERT_TRUE(s.ok());
      done++;
      issue();
    });
  };
  for (int i = 0; i < 32; i++) {
    issue();
  }
  sim.Run();
  const double iops = done / ToSeconds(sim.now());
  EXPECT_NEAR(iops, 90000.0, 15000.0);  // rated 90K random-write IOPS
}

TEST(SimSsd, FlushMakesPrecedingWritesDurable) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::P3700());
  Buffer data = Pattern(4096, 77);
  bool flushed = false;
  ssd.Write(0, data, [](Status) {});
  ssd.Flush([&](Status s) {
    ASSERT_TRUE(s.ok());
    flushed = true;
  });
  sim.Run();
  ASSERT_TRUE(flushed);
  ssd.PowerFail();
  auto r = ReadSync(&sim, &ssd, 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

// A read issued while a flush is in flight sees the newest accepted write,
// not the contents of the last completed flush.
TEST(SimSsd, ReadDuringInFlightFlushSeesNewData) {
  Simulator sim;
  SimSsd ssd(&sim, kMiB, SsdParams::P3700());
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, Pattern(4096, 1)).ok());
  ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
  Buffer newer = Pattern(4096, 2);
  ASSERT_TRUE(WriteSync(&sim, &ssd, 0, newer).ok());

  bool flushed = false;
  ssd.Flush([&](Status s) {
    ASSERT_TRUE(s.ok());
    flushed = true;
  });
  std::optional<Result<Buffer>> read;
  ssd.Read(0, 4096, [&](Result<Buffer> r) { read = std::move(r); });
  sim.Run();
  ASSERT_TRUE(flushed);
  ASSERT_TRUE(read.has_value() && read->ok());
  EXPECT_EQ(**read, newer);
}

// An overwrite accepted while a flush is in flight is not covered by it:
// after PowerFail the device holds the state of the last completed flush.
TEST(SimSsd, OverwriteDuringInFlightFlushThenPowerFail) {
  for (const bool flush_completes : {true, false}) {
    SCOPED_TRACE(flush_completes ? "flush completes" : "flush in flight");
    Simulator sim;
    SimSsd ssd(&sim, kMiB, SsdParams::P3700());
    Buffer oldest = Pattern(8192, 1);
    Buffer covered = Pattern(8192, 2);
    ASSERT_TRUE(WriteSync(&sim, &ssd, 0, oldest).ok());
    ASSERT_TRUE(FlushSync(&sim, &ssd).ok());
    ASSERT_TRUE(WriteSync(&sim, &ssd, 0, covered).ok());

    bool flushed = false;
    ssd.Flush([&](Status) { flushed = true; });
    // Overwrites one block and spills into a never-written one.
    ssd.Write(4096, Pattern(8192, 3), [](Status) {});
    if (flush_completes) {
      sim.Run();
      ASSERT_TRUE(flushed);
    }
    ssd.PowerFail();
    sim.Run();

    auto r = ReadSync(&sim, &ssd, 0, 12288);
    ASSERT_TRUE(r.ok());
    Buffer expect = flush_completes ? covered : oldest;
    expect.AppendZeros(4096);
    EXPECT_EQ(*r, expect);
  }
}

// Seeded model check: random writes (multi-chunk buffers, slices of larger
// vectors, zero runs), reads, flush submits, completions as virtual time
// advances, PowerFail and DiscardAll, every read judged block by block
// against a reference of what each 4 KiB block must hold.
TEST(SimSsd, MatchesBlockModelUnderCrashes) {
  constexpr uint64_t kBlocks = 64;
  // Contents of block `b` written with tag `t`; tag 0 and every 5th tag are
  // zeros.
  auto block_bytes = [](uint64_t tag, uint64_t b) {
    std::vector<uint8_t> out(kBlockSize, 0);
    if (tag % 5 != 0) {
      for (uint64_t i = 0; i < kBlockSize; i += 8) {
        const uint64_t v = tag * 1000003 + b * 8191 + i;
        for (uint64_t k = 0; k < 8; k++) {
          out[i + k] = static_cast<uint8_t>(v >> (8 * k));
        }
      }
    }
    return out;
  };
  // A buffer whose chunks take the shapes writes arrive in: a zero run, or a
  // slice of a larger vector and a second vector after a random split point.
  auto make_write = [&](Rng& rng, uint64_t tag, uint64_t first, uint64_t n) {
    if (tag % 5 == 0) {
      return Buffer::Zeros(n * kBlockSize);
    }
    const uint64_t split = rng.Uniform(n + 1);
    Buffer out;
    for (const auto& [from, to] : {std::pair<uint64_t, uint64_t>{0, split},
                                   std::pair<uint64_t, uint64_t>{split, n}}) {
      if (from == to) {
        continue;
      }
      const uint64_t pad = rng.Uniform(3);
      auto bytes = std::make_shared<std::vector<uint8_t>>(
          (to - from + 2 * pad) * kBlockSize, 0xEE);
      for (uint64_t b = from; b < to; b++) {
        const auto blk = block_bytes(tag, first + b);
        std::copy(blk.begin(), blk.end(),
                  bytes->data() + (b - from + pad) * kBlockSize);
      }
      Buffer whole;
      whole.AppendShared(std::move(bytes));
      out.Append(whole.Slice(pad * kBlockSize, (to - from) * kBlockSize));
    }
    return out;
  };

  for (uint64_t seed = 1; seed <= 8; seed++) {
    SCOPED_TRACE(seed);
    Simulator sim;
    SimSsd ssd(&sim, kBlocks * kBlockSize, SsdParams::P3700());
    Rng rng(seed);
    std::vector<uint64_t> current(kBlocks, 0);  // tag each block holds now
    std::vector<uint64_t> durable(kBlocks, 0);  // after the last flush done
    uint64_t crashes = 0;  // flushes issued before a crash cover nothing
    uint64_t next_tag = 1;
    int reads_checked = 0;
    int reads_issued = 0;

    for (int op = 0; op < 3000; op++) {
      const uint64_t kind = rng.Uniform(100);
      if (kind < 45) {
        const uint64_t first = rng.Uniform(kBlocks);
        const uint64_t n =
            1 + rng.Uniform(std::min<uint64_t>(8, kBlocks - first));
        const uint64_t tag = next_tag++;
        ssd.Write(first * kBlockSize, make_write(rng, tag, first, n),
                  [](Status s) { ASSERT_TRUE(s.ok()); });
        std::fill(current.data() + first, current.data() + first + n, tag);
      } else if (kind < 75) {
        const uint64_t first = rng.Uniform(kBlocks);
        const uint64_t n =
            1 + rng.Uniform(std::min<uint64_t>(16, kBlocks - first));
        std::vector<uint64_t> expect(current.data() + first,
                                     current.data() + first + n);
        reads_issued++;
        ssd.Read(first * kBlockSize, n * kBlockSize,
                 [&, first, expect](Result<Buffer> r) {
          ASSERT_TRUE(r.ok());
          const std::vector<uint8_t> got = r->ToBytes();
          for (uint64_t b = 0; b < expect.size(); b++) {
            const auto want = block_bytes(expect[b], first + b);
            ASSERT_TRUE(std::equal(want.begin(), want.end(),
                                   got.data() + b * kBlockSize))
                << "block " << first + b << " expected tag " << expect[b];
          }
          reads_checked++;
        });
      } else if (kind < 87) {
        ssd.Flush([&, snapshot = current, era = crashes](Status s) {
          ASSERT_TRUE(s.ok());
          if (era == crashes) {
            durable = snapshot;
          }
        });
      } else if (kind < 97) {
        sim.RunUntil(sim.now() + static_cast<Nanos>(rng.Uniform(300)) *
                                     kMicrosecond);
      } else if (kind < 99) {
        ssd.PowerFail();
        crashes++;
        current = durable;
      } else {
        ssd.DiscardAll();
        crashes++;
        std::fill(current.begin(), current.end(), 0);
        durable = current;
      }
    }
    sim.Run();
    EXPECT_EQ(reads_checked, reads_issued);
    // The final image, after one more crash.
    ssd.PowerFail();
    for (uint64_t b = 0; b < kBlocks; b++) {
      auto r = ReadSync(&sim, &ssd, b * kBlockSize, kBlockSize);
      ASSERT_TRUE(r.ok());
      const auto want = block_bytes(durable[b], b);
      EXPECT_EQ(r->ToBytes(), want) << "block " << b;
    }
  }
}

}  // namespace
}  // namespace lsvd
