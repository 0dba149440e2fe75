#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lsvd {

void Simulator::At(Nanos t, Fn fn) {
  assert(t >= now_ && "cannot schedule events in the past");
  if (t < now_) {
    t = now_;  // release-mode safety: keep the bucket invariant intact
  }
  const uint64_t day = DayOf(t);
  Event ev{t, next_seq_++, std::move(fn)};
  if (day < cur_day_ + kNumBuckets) {
    auto& bucket = buckets_[day & kBucketMask];
    bucket.push_back(std::move(ev));
    std::push_heap(bucket.begin(), bucket.end(), Later{});
    MarkOccupied(day & kBucketMask);
    near_size_++;
  } else {
    far_.push_back(std::move(ev));
    std::push_heap(far_.begin(), far_.end(), Later{});
  }
  size_++;
}

uint64_t Simulator::ScanToOccupied(uint64_t from_day) const {
  assert(near_size_ > 0);
  const uint64_t start = from_day & kBucketMask;
  constexpr uint64_t kWordMask = kNumBuckets / 64 - 1;
  const uint64_t word_idx = start >> 6;
  uint64_t word = occupied_[word_idx] & (~uint64_t{0} << (start & 63));
  if (word != 0) {
    return static_cast<uint64_t>(std::countr_zero(word)) - (start & 63);
  }
  uint64_t advance = 64 - (start & 63);
  // <= kWordMask + 1: the last iteration re-reads the first word, whose
  // low bits map to the far end of the ring (days just under +1024).
  for (uint64_t i = 1; i <= kWordMask + 1; i++) {
    word = occupied_[(word_idx + i) & kWordMask];
    if (word != 0) {
      advance += static_cast<uint64_t>(std::countr_zero(word));
      break;
    }
    advance += 64;
    assert(i <= kWordMask && "no occupied bucket despite near events");
  }
  return advance;
}

Nanos Simulator::PeekNextTime() const {
  assert(size_ > 0);
  if (near_size_ == 0) {
    return far_.front().t;
  }
  // Every bucketed event precedes every far timer: bucketed events have
  // day < cur_day_ + kNumBuckets (checked at insert, cursor only advances),
  // while far_.front() has day >= cur_day_ + kNumBuckets (checked at insert
  // and re-established by SettleEarliest's migration loop). So the first
  // occupied bucket at/after the cursor holds the global minimum.
  const uint64_t day = cur_day_ + ScanToOccupied(cur_day_);
  return buckets_[day & kBucketMask].front().t;
}

std::vector<Simulator::Event>* Simulator::SettleEarliest() {
  assert(size_ > 0);
  if (near_size_ == 0) {
    // Nothing near: jump the window to the earliest far timer.
    cur_day_ = DayOf(far_.front().t);
  }
  // Pull in far events that the advancing window has caught up with. Any
  // far event earlier than every near event necessarily falls inside the
  // window (near events were inserted with day < cur_day_ + kNumBuckets),
  // so after this loop the global minimum lives in a bucket.
  while (!far_.empty() && DayOf(far_.front().t) < cur_day_ + kNumBuckets) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    Event ev = std::move(far_.back());
    far_.pop_back();
    const uint64_t slot = DayOf(ev.t) & kBucketMask;
    auto& bucket = buckets_[slot];
    bucket.push_back(std::move(ev));
    std::push_heap(bucket.begin(), bucket.end(), Later{});
    MarkOccupied(slot);
    near_size_++;
  }
  cur_day_ += ScanToOccupied(cur_day_);
  return &buckets_[cur_day_ & kBucketMask];
}

Simulator::Event Simulator::PopFrom(std::vector<Event>* bucket) {
  std::pop_heap(bucket->begin(), bucket->end(), Later{});
  Event ev = std::move(bucket->back());
  bucket->pop_back();
  if (bucket->empty()) {
    ClearOccupied(static_cast<uint64_t>(bucket - buckets_.data()));
  }
  near_size_--;
  size_--;
  processed_++;
  return ev;
}

bool Simulator::Step() {
  if (size_ == 0) {
    return false;
  }
  // The event is moved out before running so the handler may schedule
  // further events (mutating the queue) safely.
  Event ev = PopFrom(SettleEarliest());
  now_ = ev.t;
  ev.fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

uint64_t Simulator::RunUntil(Nanos t) {
  uint64_t processed = 0;
  // Peek before settling: SettleEarliest commits cursor movement, which is
  // only safe when the found event is actually popped. If it ran here and
  // the front event exceeded t, the cursor would be left ahead of now_ and
  // a later At() could place an earlier event behind it (see SettleEarliest
  // contract in simulator.h).
  while (size_ > 0 && PeekNextTime() <= t) {
    Event ev = PopFrom(SettleEarliest());
    now_ = ev.t;
    ev.fn();
    processed++;
  }
  if (now_ < t) {
    now_ = t;
  }
  return processed;
}

}  // namespace lsvd
