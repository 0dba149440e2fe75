// Buffer: an immutable rope of byte chunks, where a chunk is either real
// bytes or a zero run.
//
// The simulation is data-bearing (journal headers, object headers, and
// filesystem metadata are real bytes protected by real CRCs), but bulk
// workload payloads are zero-filled. Representing zero runs symbolically
// keeps an 80 GiB preconditioned volume at a few kilobytes of memory while
// preserving exact length/offset semantics end to end.
#ifndef SRC_UTIL_BUFFER_H_
#define SRC_UTIL_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace lsvd {

class Buffer {
 public:
  Buffer() = default;

  static Buffer Zeros(uint64_t n) {
    Buffer b;
    b.AppendZeros(n);
    return b;
  }
  static Buffer FromBytes(std::span<const uint8_t> bytes) {
    Buffer b;
    b.AppendBytes(bytes);
    return b;
  }
  static Buffer FromString(const std::string& s) {
    return FromBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Appends a copy of `bytes`. All-zero inputs are stored as a zero run.
  void AppendBytes(std::span<const uint8_t> bytes);
  // Appends `bytes` by sharing its backing storage instead of copying.
  // Same zero-run normalization as AppendBytes, so the resulting buffer is
  // indistinguishable from one built with AppendBytes — only cheaper.
  void AppendShared(std::shared_ptr<const std::vector<uint8_t>> bytes);
  void AppendZeros(uint64_t n);
  // Appends another buffer (chunks are shared, O(chunks)).
  void Append(const Buffer& other);

  // True if every byte is zero.
  bool IsAllZeros() const;

  // Copies [offset, offset+out.size()) into `out`. Asserts in range.
  void CopyTo(uint64_t offset, std::span<uint8_t> out) const;

  // Sub-range view; shares chunk storage.
  Buffer Slice(uint64_t offset, uint64_t len) const;

  // Materializes the whole buffer (tests / codec paths on small data only).
  std::vector<uint8_t> ToBytes() const;

  // CRC32C over the full contents, computed without materializing zero runs.
  uint32_t Crc() const;

  friend bool operator==(const Buffer& a, const Buffer& b);

  // One contiguous piece of a buffer: `len` bytes at `offset` of *data, or a
  // zero run when data is null. Block stores keep chunks by reference
  // instead of copying bytes out (src/blockdev/slice_store.h).
  struct Chunk {
    std::shared_ptr<const std::vector<uint8_t>> data;  // null => zero run
    uint64_t offset = 0;  // into *data (unused for zero runs)
    uint64_t len = 0;
  };
  const std::vector<Chunk>& chunks() const { return chunks_; }

  // Appends one chunk, merging it into the tail when possible: adjacent zero
  // runs always merge, and data chunks merge when they reference contiguous
  // ranges of the same backing vector (common when a sliced buffer is
  // re-assembled piecewise, e.g. batch encode and journal replay).
  void AppendChunk(const Chunk& c);

 private:
  std::vector<Chunk> chunks_;
  uint64_t size_ = 0;
};

}  // namespace lsvd

#endif  // SRC_UTIL_BUFFER_H_
