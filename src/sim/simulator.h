// Discrete-event simulation engine.
//
// Everything time-dependent in this repository (SSD service times, backend
// disk seeks, network transfers, CPU overheads) runs on this engine's virtual
// clock, so benchmark results are deterministic and hardware-independent: a
// "throughput" number is bytes moved per *virtual* second.
//
// The engine is the innermost loop of every bench, so it is built for
// wall-clock speed without changing any virtual-time result:
//  - Events hold an InlineFn<64> — typical lambdas (a `this` pointer plus a
//    few scalars) live inside the event, so scheduling does not allocate.
//  - The pending set is a two-level calendar queue: a ring of 1024 buckets,
//    each 4096 ns wide (~4.2 ms near horizon), holding per-bucket binary
//    min-heaps, with a single overflow heap for far-future timers. Most
//    operations touch a heap of a handful of events instead of one giant
//    heap of everything in flight.
//
// Ordering is exactly (timestamp, FIFO sequence) — identical to the
// reference binary heap (see tests/calendar_queue_test.cc), which is what
// keeps every figure bit-identical across engine changes.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/util/inline_fn.h"
#include "src/util/units.h"

namespace lsvd {

class Simulator {
 public:
  using Fn = InlineFn<64>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Nanos now() const { return now_; }

  // Schedules `fn` at absolute virtual time `t` (>= now).
  void At(Nanos t, Fn fn);

  // Schedules `fn` `dt` nanoseconds from now.
  void After(Nanos dt, Fn fn) { At(now_ + dt, std::move(fn)); }

  // Runs one event; returns false if the queue is empty.
  bool Step();

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamps <= `t`, then sets the clock to `t`.
  // Returns the number of events processed.
  uint64_t RunUntil(Nanos t);

  bool empty() const { return size_ == 0; }
  size_t pending_events() const { return size_; }

  // Total events executed over the simulator's lifetime (perf harness).
  uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    Nanos t;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) {
        return a.t > b.t;
      }
      return a.seq > b.seq;
    }
  };

  // Calendar geometry: bucket width 2^12 ns, 1024 buckets => ~4.2 ms near
  // window; longer timers (writeback intervals, probes) overflow to `far_`.
  static constexpr int kBucketShift = 12;
  static constexpr uint64_t kNumBuckets = 1024;
  static constexpr uint64_t kBucketMask = kNumBuckets - 1;

  static uint64_t DayOf(Nanos t) {
    return static_cast<uint64_t>(t) >> kBucketShift;
  }

  // Days from `from_day` to the first non-empty bucket, scanning the
  // occupancy bitmap a word at a time (wrapping). Precondition:
  // near_size_ > 0, so a set bit exists within the window.
  uint64_t ScanToOccupied(uint64_t from_day) const;

  // Timestamp of the earliest pending event, without mutating any queue
  // state. Precondition: size_ > 0.
  Nanos PeekNextTime() const;

  // Moves far-heap events that now fall inside the near window into their
  // buckets, advances `cur_day_` to the first non-empty bucket, and returns
  // that bucket. Precondition: size_ > 0.
  //
  // Committing: callers must pop from the returned bucket. Advancing
  // cur_day_ without popping would let a later At() with an earlier
  // timestamp land in a bucket behind the cursor, where the scan finds it
  // only after a full wrap — events would run out of order and now() could
  // go backwards. Use PeekNextTime() to decide whether to pop at all.
  std::vector<Event>* SettleEarliest();

  // Pops the earliest event out of `bucket` (min of its heap).
  Event PopFrom(std::vector<Event>* bucket);

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  uint64_t processed_ = 0;

  // Occupancy bitmap over buckets_ (bit i = bucket i non-empty): lets the
  // cursor skip runs of empty buckets a word at a time. Long idle stretches
  // of virtual time otherwise cost one loop iteration per elapsed 4 µs day,
  // which dominates benches that simulate minutes of mostly-idle time.
  void MarkOccupied(uint64_t slot) {
    occupied_[slot >> 6] |= uint64_t{1} << (slot & 63);
  }
  void ClearOccupied(uint64_t slot) {
    occupied_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  }

  uint64_t cur_day_ = 0;    // earliest bucket the cursor has reached
  size_t near_size_ = 0;    // events currently in buckets_
  std::array<std::vector<Event>, kNumBuckets> buckets_;
  std::array<uint64_t, kNumBuckets / 64> occupied_{};
  std::vector<Event> far_;  // min-heap of events beyond the near window
};

}  // namespace lsvd

#endif  // SRC_SIM_SIMULATOR_H_
