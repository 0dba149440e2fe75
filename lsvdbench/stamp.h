// Stamped blocks and the benchmark's own model of acknowledged writes.
//
// Every 4 KiB block the benchmark writes carries one 16-byte stamp repeated
// 256 times: the write's sequence number and the block's own address, both
// little-endian u64. A block that was never written reads as zeros (stamp
// seq 0). The model remembers, per block, the sequence number of the last
// acknowledged write, plus the ordered log of every write issued, so a read
// can be checked byte for byte and a recovered image can be checked against
// every prefix of the log. Nothing here calls into the program under test.
#ifndef LSVDBENCH_STAMP_H_
#define LSVDBENCH_STAMP_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "src/util/buffer.h"

namespace lsvdbench {

inline constexpr uint64_t kBlock = 4096;
inline constexpr uint64_t kStampBytes = 16;

// Fills `out` (a whole number of blocks starting at block `lba`) with the
// stamps of write `seq`.
inline void StampBlocks(uint64_t seq, uint64_t lba, std::span<uint8_t> out) {
  for (uint64_t b = 0; b * kBlock < out.size(); b++) {
    uint8_t unit[kStampBytes];
    const uint64_t addr = lba + b;
    std::memcpy(unit, &seq, 8);
    std::memcpy(unit + 8, &addr, 8);
    uint8_t* blk = out.data() + b * kBlock;
    for (uint64_t o = 0; o < kBlock; o += kStampBytes) {
      std::memcpy(blk + o, unit, kStampBytes);
    }
  }
}

inline lsvd::Buffer MakeStampedBuffer(uint64_t seq, uint64_t lba,
                                      uint64_t nblocks) {
  auto bytes = std::make_shared<std::vector<uint8_t>>(nblocks * kBlock);
  StampBlocks(seq, lba, *bytes);
  lsvd::Buffer b;
  b.AppendShared(std::move(bytes));
  return b;
}

enum class BlockVerdict {
  kOk,
  kForeign,  // an intact stamp of another block's address
  kTorn,     // the 256 stamps of the block disagree, or junk bytes
  kStale,    // an intact, older version of this block
  kFuture,   // an intact version newer than the last acknowledged write
};

struct DecodedBlock {
  bool intact = false;  // all 256 stamps identical (or all zeros)
  uint64_t seq = 0;
  uint64_t lba = 0;
};

inline DecodedBlock DecodeBlock(const uint8_t* blk) {
  DecodedBlock d;
  for (uint64_t o = kStampBytes; o < kBlock; o += kStampBytes) {
    if (std::memcmp(blk, blk + o, kStampBytes) != 0) {
      return d;
    }
  }
  d.intact = true;
  std::memcpy(&d.seq, blk, 8);
  std::memcpy(&d.lba, blk + 8, 8);
  return d;
}

// Checks one decoded block of address `lba` against the sequence number of
// its last acknowledged write (0: never written).
inline BlockVerdict Judge(const DecodedBlock& d, uint64_t lba,
                          uint64_t expect) {
  if (!d.intact) {
    return BlockVerdict::kTorn;
  }
  if (d.seq == 0 && d.lba == 0) {
    return expect == 0 ? BlockVerdict::kOk : BlockVerdict::kStale;
  }
  if (d.seq == 0 || d.lba != lba) {
    return BlockVerdict::kForeign;
  }
  if (d.seq == expect) {
    return BlockVerdict::kOk;
  }
  return d.seq < expect ? BlockVerdict::kStale : BlockVerdict::kFuture;
}

struct VerdictCounts {
  uint64_t foreign = 0;
  uint64_t torn = 0;
  uint64_t stale = 0;
  uint64_t future = 0;

  uint64_t bad() const { return foreign + torn + stale + future; }
  void Add(BlockVerdict v) {
    switch (v) {
      case BlockVerdict::kOk: break;
      case BlockVerdict::kForeign: foreign++; break;
      case BlockVerdict::kTorn: torn++; break;
      case BlockVerdict::kStale: stale++; break;
      case BlockVerdict::kFuture: future++; break;
    }
  }
};

// One wrong block, kept as an example of what a fault returns.
struct BadBlock {
  int64_t when = 0;  // virtual time of the read's completion
  uint64_t lba = 0;
  uint64_t expect = 0;  // sequence number of the last acknowledged write
  DecodedBlock got;
};

// The benchmark's model of the volume: the last acknowledged write of every
// block and the ordered log of issued writes.
class Model {
 public:
  explicit Model(uint64_t blocks) : acked_(blocks, 0) {}

  struct LoggedWrite {
    uint64_t seq;
    uint64_t lba;
    uint64_t nblocks;
  };

  uint64_t blocks() const { return acked_.size(); }
  uint64_t acked(uint64_t lba) const { return acked_[lba]; }
  const std::vector<LoggedWrite>& log() const { return log_; }

  // Records an issued write and returns its sequence number (1, 2, ...).
  uint64_t Issue(uint64_t lba, uint64_t nblocks) {
    const uint64_t seq = log_.size() + 1;
    log_.push_back({seq, lba, nblocks});
    return seq;
  }
  void Ack(uint64_t seq) {
    const LoggedWrite& w = log_[seq - 1];
    for (uint64_t b = 0; b < w.nblocks; b++) {
      acked_[w.lba + b] = seq;
    }
  }

  // Checks `data`, read from block `lba`, against the acknowledged model;
  // appends wrong blocks to `samples` while it holds fewer than `keep`.
  VerdictCounts CheckRead(uint64_t lba, std::span<const uint8_t> data,
                          int64_t when = 0,
                          std::vector<BadBlock>* samples = nullptr,
                          size_t keep = 0) const {
    VerdictCounts c;
    for (uint64_t b = 0; b * kBlock < data.size(); b++) {
      const DecodedBlock d = DecodeBlock(data.data() + b * kBlock);
      const BlockVerdict v = Judge(d, lba + b, acked_[lba + b]);
      c.Add(v);
      if (v != BlockVerdict::kOk && samples != nullptr &&
          samples->size() < keep) {
        samples->push_back({when, lba + b, acked_[lba + b], d});
      }
    }
    return c;
  }

  // True when `image` (one decoded block per volume block) equals the
  // replay of some prefix of the write log. Foreign or torn blocks, or
  // stamps of writes never issued, make it false.
  bool IsPrefixImage(const std::vector<DecodedBlock>& image) const {
    if (image.size() != acked_.size()) {
      return false;
    }
    uint64_t last = 0;  // the shortest prefix that holds every seen write
    for (uint64_t lba = 0; lba < image.size(); lba++) {
      const DecodedBlock& d = image[lba];
      if (!d.intact || d.seq > log_.size() ||
          (d.seq == 0 && d.lba != 0) || (d.seq != 0 && d.lba != lba)) {
        return false;
      }
      last = d.seq > last ? d.seq : last;
    }
    // If the image is not the replay of the shortest such prefix, it is
    // not the replay of any longer one either: a longer prefix only
    // replaces versions with newer ones.
    std::vector<uint64_t> replay(acked_.size(), 0);
    for (uint64_t i = 0; i < last; i++) {
      const LoggedWrite& w = log_[i];
      for (uint64_t b = 0; b < w.nblocks; b++) {
        replay[w.lba + b] = w.seq;
      }
    }
    for (uint64_t lba = 0; lba < image.size(); lba++) {
      if (replay[lba] != image[lba].seq) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<uint64_t> acked_;
  std::vector<LoggedWrite> log_;
};

}  // namespace lsvdbench

#endif  // LSVDBENCH_STAMP_H_
