// SliceStore: the contents of a simulated block device as one ordered extent
// map, offset -> shared slice of a written Buffer chunk.
//
// Buffers are immutable, so a write keeps the caller's chunks by reference
// instead of copying its bytes, and a read returns a few slices of them.
// When an overwrite leaves a small remainder of a piece that pins a backing
// vector much larger than itself, the remainder gets its own copy, so a few
// surviving bytes do not keep a whole overwritten payload alive.
//
// Every piece carries the flush window it was written in. A write can report
// what it displaced from earlier windows, never-written holes included, and
// Restore puts such a piece back: that is all SimSsd needs to undo the writes
// whose flush never completed (sim_ssd.h).
#ifndef SRC_BLOCKDEV_SLICE_STORE_H_
#define SRC_BLOCKDEV_SLICE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/util/buffer.h"

namespace lsvd {

class SliceStore {
 public:
  // `len` bytes at `data_off` of *data (null: zeros), written in `window`.
  // Window 0 marks a never-written hole in a displaced list.
  struct Piece {
    uint64_t len = 0;
    std::shared_ptr<const std::vector<uint8_t>> data;
    uint64_t data_off = 0;
    uint64_t window = 0;
  };
  struct Displaced {
    uint64_t offset = 0;
    Piece piece;
  };

  // Stores `data` at `offset`, tagged with `window` (>= 1). Every part of
  // the range that held bytes of an earlier window, or nothing, is appended
  // to `displaced`.
  void Write(uint64_t offset, const Buffer& data, uint64_t window,
             std::vector<Displaced>* displaced);
  // Puts a displaced piece back where it was (a hole is erased).
  void Restore(const Displaced& d);
  // Never-written bytes read as zeros.
  Buffer Read(uint64_t offset, uint64_t len) const;
  void Clear() { pieces_.clear(); }

 private:
  using Map = std::map<uint64_t, Piece>;  // by start offset; no overlaps

  // Removes [start, end), reporting displaced parts as Write describes
  // (nothing when `displaced` is null). Returns the first piece after it.
  Map::iterator Carve(uint64_t start, uint64_t end, uint64_t window,
                      std::vector<Displaced>* displaced);

  Map pieces_;
};

}  // namespace lsvd

#endif  // SRC_BLOCKDEV_SLICE_STORE_H_
