// Tests of the benchmark's own checker: the stamp decoder and verdicts, the
// prefix test, the closed-loop client against a correct in-memory disk and
// against disks that misbehave in each way the checker must catch, and the
// repeatability of a workload round for a fixed seed.
#include <gtest/gtest.h>

#include <map>

#include "lsvdbench/client.h"
#include "lsvdbench/stamp.h"
#include "lsvdbench/workload.h"

namespace lsvdbench {
namespace {

// A correct disk: each op completes after its own pseudo-random delay, so
// completions come back out of issue order.
class MemDisk : public lsvd::VirtualDisk {
 public:
  enum class Fault { kNone, kForeign, kTorn, kStale, kDropWrite };

  MemDisk(lsvd::Simulator* sim, uint64_t blocks, Fault fault = Fault::kNone)
      : sim_(sim), data_(blocks * kBlock, 0), fault_(fault) {}

  uint64_t size() const override { return data_.size(); }

  void Write(uint64_t offset, lsvd::Buffer data,
             std::function<void(lsvd::Status)> done) override {
    sim_->After(Delay(), [this, offset, data = std::move(data),
                          done = std::move(done)]() {
      writes_++;
      const bool drop = fault_ == Fault::kDropWrite && writes_ % 7 == 0;
      if (!drop) {
        if (fault_ == Fault::kStale) {
          old_[offset] = std::vector<uint8_t>(
              data_.begin() + static_cast<ptrdiff_t>(offset),
              data_.begin() + static_cast<ptrdiff_t>(offset + kBlock));
        }
        data.CopyTo(0, std::span<uint8_t>(data_.data() + offset, data.size()));
      }
      done(lsvd::Status::Ok());
    });
  }
  void Read(uint64_t offset, uint64_t len,
            std::function<void(lsvd::Result<lsvd::Buffer>)> done) override {
    sim_->After(Delay(), [this, offset, len, done = std::move(done)]() {
      std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(offset),
                               data_.begin() +
                                   static_cast<ptrdiff_t>(offset + len));
      reads_++;
      if (reads_ % 5 == 0) {
        Corrupt(offset, &out);
      }
      done(lsvd::Buffer::FromBytes(out));
    });
  }
  void Flush(std::function<void(lsvd::Status)> done) override {
    sim_->After(Delay(), [done = std::move(done)]() {
      done(lsvd::Status::Ok());
    });
  }

 private:
  int64_t Delay() { return 1000 + static_cast<int64_t>(rng_.Below(50000)); }
  void Corrupt(uint64_t offset, std::vector<uint8_t>* out) {
    switch (fault_) {
      case Fault::kForeign:  // another block's intact contents
        std::copy_n(data_.begin() + static_cast<ptrdiff_t>(
                                        (offset + kBlock) % data_.size()),
                    kBlock, out->begin());
        break;
      case Fault::kTorn:
        (*out)[kBlock / 2] ^= 0xFF;
        break;
      case Fault::kStale:
        if (old_.contains(offset)) {
          std::copy(old_[offset].begin(), old_[offset].end(), out->begin());
        }
        break;
      case Fault::kNone:
      case Fault::kDropWrite:
        break;
    }
  }

  lsvd::Simulator* sim_;
  std::vector<uint8_t> data_;
  Fault fault_;
  Rng rng_{7};
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  std::map<uint64_t, std::vector<uint8_t>> old_;
};

constexpr uint64_t kBlocks = 256;

std::vector<Op> RandomOps(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < n; i++) {
    const uint64_t k = rng.Below(10);
    Op op;
    op.kind = k < 5 ? OpKind::kWrite : k < 9 ? OpKind::kRead : OpKind::kFlush;
    if (op.kind != OpKind::kFlush) {
      op.nblocks = 1 + static_cast<uint32_t>(rng.Below(4));
      op.lba = rng.Below(kBlocks - op.nblocks + 1);
    }
    ops.push_back(op);
  }
  return ops;
}

Client::Tally RunOn(MemDisk::Fault fault) {
  lsvd::Simulator sim;
  MemDisk disk(&sim, kBlocks, fault);
  Model model(kBlocks);
  Client client(&sim, &model, nullptr, 16);
  EXPECT_TRUE(client.Run(&disk, RandomOps(1, 4000)));
  return client.tally();
}

TEST(Stamp, RoundTripsAndJudges) {
  std::vector<uint8_t> b(2 * kBlock);
  StampBlocks(42, 10, b);
  const DecodedBlock d0 = DecodeBlock(b.data());
  const DecodedBlock d1 = DecodeBlock(b.data() + kBlock);
  EXPECT_TRUE(d0.intact);
  EXPECT_EQ(d0.seq, 42u);
  EXPECT_EQ(d0.lba, 10u);
  EXPECT_EQ(d1.lba, 11u);
  EXPECT_EQ(Judge(d0, 10, 42), BlockVerdict::kOk);
  EXPECT_EQ(Judge(d0, 10, 43), BlockVerdict::kStale);
  EXPECT_EQ(Judge(d0, 10, 41), BlockVerdict::kFuture);
  EXPECT_EQ(Judge(d1, 10, 42), BlockVerdict::kForeign);
  b[100] ^= 1;
  EXPECT_EQ(Judge(DecodeBlock(b.data()), 10, 42), BlockVerdict::kTorn);
  std::vector<uint8_t> zeros(kBlock, 0);
  EXPECT_EQ(Judge(DecodeBlock(zeros.data()), 5, 0), BlockVerdict::kOk);
  EXPECT_EQ(Judge(DecodeBlock(zeros.data()), 5, 3), BlockVerdict::kStale);
}

TEST(Client, CorrectDiskPassesEveryCheck) {
  const Client::Tally t = RunOn(MemDisk::Fault::kNone);
  EXPECT_EQ(t.verdicts.bad(), 0u);
  EXPECT_EQ(t.bad_reads, 0u);
  EXPECT_TRUE(t.completions_ok);
  EXPECT_GT(t.reads, 1000u);
}

TEST(Client, CatchesForeignAddressBlock) {
  const Client::Tally t = RunOn(MemDisk::Fault::kForeign);
  EXPECT_GT(t.verdicts.foreign, 0u);
}

TEST(Client, CatchesTornBlock) {
  const Client::Tally t = RunOn(MemDisk::Fault::kTorn);
  EXPECT_GT(t.verdicts.torn, 0u);
  EXPECT_EQ(t.verdicts.foreign + t.verdicts.stale, 0u);
}

TEST(Client, CatchesStaleVersion) {
  const Client::Tally t = RunOn(MemDisk::Fault::kStale);
  EXPECT_GT(t.verdicts.stale, 0u);
  EXPECT_EQ(t.verdicts.foreign + t.verdicts.torn, 0u);
}

TEST(Client, CatchesLostAcknowledgedWrite) {
  lsvd::Simulator sim;
  MemDisk disk(&sim, kBlocks, MemDisk::Fault::kDropWrite);
  Model model(kBlocks);
  Client client(&sim, &model, nullptr, 16);
  std::vector<Op> writes;
  for (uint64_t lba = 0; lba < kBlocks; lba++) {
    writes.push_back({OpKind::kWrite, 1, lba});
  }
  ASSERT_TRUE(client.Run(&disk, writes));
  std::vector<DecodedBlock> image(kBlocks);
  std::vector<Op> sweep;
  for (uint64_t lba = 0; lba < kBlocks; lba += 16) {
    sweep.push_back({OpKind::kRead, 16, lba});
  }
  ASSERT_TRUE(client.Run(&disk, sweep, &image));
  uint64_t lost = 0;
  for (uint64_t lba = 0; lba < kBlocks; lba++) {
    lost += Judge(image[lba], lba, model.acked(lba)) == BlockVerdict::kStale;
  }
  EXPECT_EQ(lost, kBlocks / 7);
}

TEST(Client, CatchesDoubleCompletion) {
  class Twice : public MemDisk {
   public:
    using MemDisk::MemDisk;
    void Flush(std::function<void(lsvd::Status)> done) override {
      done(lsvd::Status::Ok());
      done(lsvd::Status::Ok());
    }
  };
  lsvd::Simulator sim;
  Twice disk(&sim, kBlocks);
  Model model(kBlocks);
  Client client(&sim, &model, nullptr, 4);
  client.Run(&disk, {{OpKind::kFlush, 0, 0}, {OpKind::kFlush, 0, 0}});
  EXPECT_FALSE(client.tally().completions_ok);
}

TEST(Model, PrefixImages) {
  Model m(4);
  const uint64_t a = m.Issue(0, 2);  // blocks 0,1
  const uint64_t b = m.Issue(1, 2);  // blocks 1,2
  const uint64_t c = m.Issue(3, 1);  // block 3
  auto img = [](std::vector<std::pair<uint64_t, uint64_t>> v) {
    std::vector<DecodedBlock> out;
    for (auto [seq, lba] : v) {
      out.push_back(DecodedBlock{true, seq, seq == 0 ? 0 : lba});
    }
    return out;
  };
  EXPECT_TRUE(m.IsPrefixImage(img({{0, 0}, {0, 1}, {0, 2}, {0, 3}})));
  EXPECT_TRUE(m.IsPrefixImage(img({{a, 0}, {a, 1}, {0, 2}, {0, 3}})));
  EXPECT_TRUE(m.IsPrefixImage(img({{a, 0}, {b, 1}, {b, 2}, {0, 3}})));
  EXPECT_TRUE(m.IsPrefixImage(img({{a, 0}, {b, 1}, {b, 2}, {c, 3}})));
  // c without b: a hole in the log.
  EXPECT_FALSE(m.IsPrefixImage(img({{a, 0}, {a, 1}, {0, 2}, {c, 3}})));
  // Half of b.
  EXPECT_FALSE(m.IsPrefixImage(img({{a, 0}, {a, 1}, {b, 2}, {0, 3}})));
  // A stamp of a write never issued, and a foreign block.
  EXPECT_FALSE(m.IsPrefixImage(img({{9, 0}, {0, 1}, {0, 2}, {0, 3}})));
  EXPECT_FALSE(m.IsPrefixImage(img({{a, 1}, {a, 1}, {0, 2}, {0, 3}})));
}

TEST(Round, FixedSeedRepeatsVirtualMetricsAndCounts) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec* w = FindWorkload(name);
    ASSERT_NE(w, nullptr);
    WorkloadSpec small = *w;
    small.measured_ops = 1500;
    const RoundResult a = RunRound(small, 5, false);
    const RoundResult b = RunRound(small, 5, true);
    EXPECT_EQ(a.client_iops, b.client_iops) << name;
    EXPECT_EQ(a.write_p50_us, b.write_p50_us) << name;
    EXPECT_EQ(a.write_p99_us, b.write_p99_us) << name;
    EXPECT_EQ(a.read_p50_us, b.read_p50_us) << name;
    EXPECT_EQ(a.read_p99_us, b.read_p99_us) << name;
    EXPECT_EQ(a.backend_write_bytes_per_client_byte,
              b.backend_write_bytes_per_client_byte) << name;
    EXPECT_EQ(a.backend_write_ops_per_client_write,
              b.backend_write_ops_per_client_write) << name;
    EXPECT_EQ(a.live.bad(), b.live.bad()) << name;
    EXPECT_EQ(a.sweep.bad(), b.sweep.bad()) << name;
    EXPECT_EQ(a.read_errors, b.read_errors) << name;
  }
}

}  // namespace
}  // namespace lsvdbench
