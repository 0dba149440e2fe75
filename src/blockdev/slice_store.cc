#include "src/blockdev/slice_store.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace lsvd {
namespace {

// A remainder no larger than 1/kPinRatio of its backing vector is copied.
constexpr uint64_t kPinRatio = 2;

// The part [skip, skip+len) of `p`, still sharing its backing vector.
SliceStore::Piece Sub(const SliceStore::Piece& p, uint64_t skip,
                      uint64_t len) {
  return SliceStore::Piece{
      len, p.data, p.data == nullptr ? 0 : p.data_off + skip, p.window};
}

// A piece that stays in the map after an overwrite cut it.
SliceStore::Piece Remainder(const SliceStore::Piece& p, uint64_t skip,
                            uint64_t len) {
  SliceStore::Piece out = Sub(p, skip, len);
  if (out.data != nullptr && len * kPinRatio <= out.data->size()) {
    const auto* first = out.data->data() + out.data_off;
    out.data =
        std::make_shared<const std::vector<uint8_t>>(first, first + len);
    out.data_off = 0;
  }
  return out;
}

}  // namespace

SliceStore::Map::iterator SliceStore::Carve(uint64_t start, uint64_t end,
                                            uint64_t window,
                                            std::vector<Displaced>* displaced) {
  auto record = [&](uint64_t offset, Piece piece) {
    if (displaced != nullptr && piece.window < window) {
      displaced->push_back(Displaced{offset, std::move(piece)});
    }
  };
  uint64_t pos = start;  // first byte of the range not yet accounted for
  auto it = pieces_.lower_bound(start);
  if (it != pieces_.begin()) {
    auto prev = std::prev(it);
    const uint64_t prev_end = prev->first + prev->second.len;
    if (prev_end > start) {
      // The piece before the range reaches into it: keep its head.
      const Piece old = std::move(prev->second);
      const uint64_t head = start - prev->first;
      prev->second = Remainder(old, 0, head);
      if (prev_end > end) {
        record(start, Sub(old, head, end - start));
        return pieces_.emplace_hint(
            it, end, Remainder(old, end - prev->first, prev_end - end));
      }
      record(start, Sub(old, head, prev_end - start));
      pos = prev_end;
    }
  }
  while (it != pieces_.end() && it->first < end) {
    if (it->first > pos) {
      record(pos, Piece{it->first - pos, nullptr, 0, 0});
    }
    const uint64_t piece_end = it->first + it->second.len;
    if (piece_end > end) {
      // The last piece runs past the range: keep its tail.
      record(it->first, Sub(it->second, 0, end - it->first));
      auto next = std::next(it);
      auto node = pieces_.extract(it);
      node.mapped() =
          Remainder(node.mapped(), end - node.key(), piece_end - end);
      node.key() = end;
      return pieces_.insert(next, std::move(node));
    }
    record(it->first, std::move(it->second));
    pos = piece_end;
    it = pieces_.erase(it);
  }
  if (pos < end) {
    record(pos, Piece{end - pos, nullptr, 0, 0});
  }
  return it;
}

void SliceStore::Write(uint64_t offset, const Buffer& data, uint64_t window,
                       std::vector<Displaced>* displaced) {
  auto hint = Carve(offset, offset + data.size(), window, displaced);
  uint64_t pos = offset;
  for (const Buffer::Chunk& c : data.chunks()) {
    pieces_.emplace_hint(hint, pos, Piece{c.len, c.data, c.offset, window});
    pos += c.len;
  }
}

void SliceStore::Restore(const Displaced& d) {
  auto hint = Carve(d.offset, d.offset + d.piece.len, 0, nullptr);
  if (d.piece.window != 0) {
    pieces_.emplace_hint(hint, d.offset, d.piece);
  }
}

Buffer SliceStore::Read(uint64_t offset, uint64_t len) const {
  Buffer out;
  const uint64_t end = offset + len;
  uint64_t pos = offset;
  auto it = pieces_.upper_bound(offset);
  if (it != pieces_.begin() &&
      std::prev(it)->first + std::prev(it)->second.len > offset) {
    --it;
  }
  for (; it != pieces_.end() && it->first < end; ++it) {
    if (it->first > pos) {
      out.AppendChunk(Buffer::Chunk{nullptr, 0, it->first - pos});
      pos = it->first;
    }
    const Piece& p = it->second;
    const uint64_t skip = pos - it->first;
    const uint64_t n = std::min(p.len - skip, end - pos);
    out.AppendChunk(
        Buffer::Chunk{p.data, p.data == nullptr ? 0 : p.data_off + skip, n});
    pos += n;
  }
  if (pos < end) {
    out.AppendChunk(Buffer::Chunk{nullptr, 0, end - pos});
  }
  return out;
}

}  // namespace lsvd
