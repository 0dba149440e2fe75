// The benchmark's closed-loop client: issues an op stream at a fixed queue
// depth against any VirtualDisk, stamps every write, and checks every read
// against the model of acknowledged writes.
#ifndef LSVDBENCH_CLIENT_H_
#define LSVDBENCH_CLIENT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lsvdbench/stamp.h"
#include "lsvdbench/trace.h"
#include "src/blockdev/virtual_disk.h"
#include "src/sim/simulator.h"

namespace lsvdbench {

enum class OpKind : uint8_t { kWrite, kRead, kFlush };

struct Op {
  OpKind kind = OpKind::kFlush;
  uint32_t nblocks = 0;
  uint64_t lba = 0;
};

// splitmix64: the benchmark's own generator, so op streams do not move
// when the program's RNG changes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// Nearest-rank percentile.
inline double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

// Closed-loop client at a fixed queue depth. It issues ops in stream
// order, never two at once that touch the same block, so the model's last
// acknowledged write is the only correct content for every block read.
class Client {
 public:
  static constexpr size_t kKeepSamples = 8;

  struct Tally {
    std::vector<int64_t> write_ns, read_ns;
    int64_t first_issue = -1;
    int64_t last_done = -1;
    uint64_t writes = 0, reads = 0, flushes = 0, write_bytes = 0;
    uint64_t write_errors = 0, read_errors = 0, flush_errors = 0;
    uint64_t bad_reads = 0;
    VerdictCounts verdicts;
    std::vector<BadBlock> samples;  // the first few wrong blocks
    std::string first_read_error;
    int64_t check_ns = 0;
    bool completions_ok = true;
  };

  // A freed queue slot is refilled after a think time drawn uniformly from
  // [0, think_ns) with a generator seeded by `seed`; 0 refills at once.
  Client(lsvd::Simulator* sim, Model* model, Tracer* tracer, int qd,
         int64_t think_ns = 0, uint64_t seed = 0)
      : sim_(sim), model_(model), tracer_(tracer), think_ns_(think_ns), rng_(seed), free_slots_(qd),
        busy_(model->blocks(), 0) {}

  // Runs `ops` against `disk` until the last completes, and not one event
  // further. With `image` set, reads are decoded into it (one entry per
  // volume block) instead of being judged. Returns false if the simulator
  // ran dry with ops outstanding.
  bool Run(lsvd::VirtualDisk* disk, const std::vector<Op>& ops,
           std::vector<DecodedBlock>* image = nullptr) {
    run_++;
    disk_ = disk;
    ops_ = &ops;
    image_ = image;
    next_ = 0;
    completed_ = 0;
    done_count_.assign(ops.size(), 0);
    Pump();
    bool ok = true;
    while (completed_ < ops.size()) {
      if (!sim_->Step()) {
        t_.completions_ok = false;
        ok = false;
        break;
      }
    }
    // Slots freed by the last completions come back after their think time,
    // perhaps during the next Run(); until then there is nothing to issue.
    ops_ = nullptr;
    return ok;
  }

  Tally& tally() { return t_; }
  void ResetTally() { t_ = Tally{}; }

 private:
  bool Busy(const Op& op) const {
    for (uint32_t b = 0; b < op.nblocks; b++) {
      if (busy_[op.lba + b] != 0) {
        return true;
      }
    }
    return false;
  }
  void Mark(const Op& op, uint8_t v) {
    std::fill_n(busy_.begin() + static_cast<ptrdiff_t>(op.lba), op.nblocks, v);
  }

  void Pump() {
    if (ops_ == nullptr) {
      return;
    }
    if (pumping_) {
      repump_ = true;
      return;
    }
    pumping_ = true;
    do {
      repump_ = false;
      while (free_slots_ > 0 && next_ < ops_->size()) {
        const Op& op = (*ops_)[next_];
        if (op.kind != OpKind::kFlush && Busy(op)) {
          break;  // wait for the conflicting op to complete
        }
        Issue(next_++, op);
      }
    } while (repump_);
    pumping_ = false;
  }

  void Issue(size_t i, const Op& op) {
    free_slots_--;
    if (op.kind != OpKind::kFlush) {
      Mark(op, 1);
    }
    const int64_t t0 = sim_->now();
    if (t_.first_issue < 0) {
      t_.first_issue = t0;
    }
    if (tracer_ != nullptr) {
      tracer_->PushOp(i + 1);
      tracer_->Begin("client.issue", Layer::kClient);
    }
    switch (op.kind) {
      case OpKind::kWrite: {
        const int64_t c0 = HostNs();
        const uint64_t seq = model_->Issue(op.lba, op.nblocks);
        lsvd::Buffer data = MakeStampedBuffer(seq, op.lba, op.nblocks);
        t_.check_ns += HostNs() - c0;
        disk_->Write(op.lba * kBlock, std::move(data),
                     [this, run = run_, i, seq, t0](lsvd::Status s) {
                       if (!Finish(run, i)) {
                         return;
                       }
                       t_.writes++;
                       t_.write_bytes += (*ops_)[i].nblocks * kBlock;
                       t_.write_ns.push_back(sim_->now() - t0);
                       if (s.ok()) {
                         model_->Ack(seq);
                       } else {
                         t_.write_errors++;
                       }
                       Release(i);
                     });
        break;
      }
      case OpKind::kRead:
        disk_->Read(op.lba * kBlock, op.nblocks * kBlock,
                    [this, run = run_, i, t0](lsvd::Result<lsvd::Buffer> r) {
                      if (!Finish(run, i)) {
                        return;
                      }
                      t_.reads++;
                      t_.read_ns.push_back(sim_->now() - t0);
                      if (r.ok()) {
                        Check(i, r.value());
                      } else {
                        if (t_.read_errors++ == 0) {
                          t_.first_read_error = r.status().ToString();
                        }
                      }
                      Release(i);
                    });
        break;
      case OpKind::kFlush:
        disk_->Flush([this, run = run_, i](lsvd::Status s) {
          if (!Finish(run, i)) {
            return;
          }
          t_.flushes++;
          t_.flush_errors += s.ok() ? 0 : 1;
          Release(i);
        });
        break;
    }
    if (tracer_ != nullptr) {
      tracer_->End();
      tracer_->PopOp();
    }
  }

  // Counts a completion of op `i` of Run() number `run`; false (and the
  // tally marked broken) on a second completion, or one after its Run().
  bool Finish(uint64_t run, size_t i) {
    if (run != run_ || ++done_count_[i] != 1) {
      t_.completions_ok = false;
      return false;
    }
    return true;
  }
  void Release(size_t i) {
    const Op& op = (*ops_)[i];
    if (op.kind != OpKind::kFlush) {
      Mark(op, 0);
    }
    completed_++;
    t_.last_done = sim_->now();
    if (think_ns_ == 0) {
      free_slots_++;
      Pump();
      return;
    }
    sim_->After(static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(think_ns_))),
                [this]() {
                  free_slots_++;
                  Pump();
                });
  }

  void Check(size_t i, const lsvd::Buffer& data) {
    const int64_t c0 = HostNs();
    const Op& op = (*ops_)[i];
    scratch_.resize(op.nblocks * kBlock);
    if (data.size() != scratch_.size()) {
      t_.bad_reads++;
      t_.verdicts.torn += op.nblocks;
    } else {
      data.CopyTo(0, scratch_);
      if (image_ != nullptr) {
        for (uint32_t b = 0; b < op.nblocks; b++) {
          (*image_)[op.lba + b] = DecodeBlock(scratch_.data() + b * kBlock);
        }
      } else {
        const VerdictCounts v = model_->CheckRead(
            op.lba, scratch_, sim_->now(), &t_.samples, kKeepSamples);
        t_.bad_reads += v.bad() != 0 ? 1 : 0;
        t_.verdicts.foreign += v.foreign;
        t_.verdicts.torn += v.torn;
        t_.verdicts.stale += v.stale;
        t_.verdicts.future += v.future;
      }
    }
    t_.check_ns += HostNs() - c0;
  }

  lsvd::Simulator* sim_;
  Model* model_;
  Tracer* tracer_;
  int64_t think_ns_;
  Rng rng_;
  // Queue slots free to issue into; a slot comes back a think time after
  // its op completes, possibly during a later Run().
  int free_slots_;
  std::vector<uint8_t> busy_;
  lsvd::VirtualDisk* disk_ = nullptr;
  const std::vector<Op>* ops_ = nullptr;
  std::vector<DecodedBlock>* image_ = nullptr;
  uint64_t run_ = 0;  // Run() calls so far
  std::vector<uint32_t> done_count_;
  std::vector<uint8_t> scratch_;
  size_t next_ = 0;
  size_t completed_ = 0;
  bool pumping_ = false;
  bool repump_ = false;
  Tally t_;
};

}  // namespace lsvdbench

#endif  // LSVDBENCH_CLIENT_H_
