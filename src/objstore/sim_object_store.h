// Simulated S3-compatible object store (Ceph RADOS Gateway stand-in).
//
// Functionally a key->Buffer map; every operation is charged realistic time
// against the client NIC (NetLink) and the backend disk pool
// (BackendCluster). Two placement policies:
//
//  - kErasure42 (paper's LSVD configuration): each 4 MiB RADOS-style stripe
//    of a PUT becomes 4 data + 2 parity chunk writes of stripe/4 bytes each,
//    plus a batch of small journal/metadata writes — reproducing the ~1 MiB
//    backend write clustering and the small-write tail in Figure 14.
//  - kReplicated3: three whole-stripe copies (used for ablations).
//
// An object becomes visible when all its backend writes complete, so
// concurrent PUTs commit out of order under backend congestion — exactly the
// "stranded object" scenario LSVD's prefix recovery handles (§3.3).
// ClientCrash() drops unacknowledged completions and abandons PUTs that have
// not yet reached the backend.
#ifndef SRC_OBJSTORE_SIM_OBJECT_STORE_H_
#define SRC_OBJSTORE_SIM_OBJECT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/objstore/object_store.h"
#include "src/sim/cluster.h"
#include "src/sim/net_link.h"
#include "src/sim/simulator.h"
#include "src/util/metrics.h"

namespace lsvd {

struct SimObjectStoreConfig {
  enum class Placement { kErasure42, kReplicated3 };
  Placement placement = Placement::kErasure42;
  uint64_t stripe_size = 4 * kMiB;
  // Ceph issues ~64 writes per 4 MiB object (paper §4.5): 6 chunk writes for
  // the 4,2 code plus ~58 small journal/metadata writes, charged as WAL
  // appends on the chunk disks. This is what yields the paper's 0.25 backend
  // ops per client op in the 16 KiB load test (Figure 13).
  uint32_t metadata_writes_per_stripe = 58;
  uint32_t metadata_write_size = 4 * kKiB;
  // Per-request gateway (RGW) software overhead: the paper measures an S3
  // range GET at ~5.9 ms end to end (Table 6).
  Nanos get_overhead = 3500 * kMicrosecond;
  Nanos put_overhead = 2 * kMillisecond;
};

struct ObjectStoreStats {
  uint64_t puts = 0;
  uint64_t put_bytes = 0;
  uint64_t gets = 0;
  uint64_t get_bytes = 0;
  uint64_t deletes = 0;
};

// The durable object namespace of one backend shard. By default every
// SimObjectStore owns a private bucket (the historical single-host
// behavior); a fleet (src/fleet) builds one bucket per shard and hands the
// same bucket to every host's store view, so objects PUT through host A's
// view are visible to host B's — the property live migration, failover
// recover-attach and cross-host clone fan-out all rest on.
struct ObjectBucket {
  std::map<std::string, Buffer> objects;
};

class SimObjectStore : public ObjectStore {
 public:
  // `bucket` null keeps a privately owned namespace; non-null shares the
  // caller's (which must outlive the store).
  SimObjectStore(Simulator* sim, BackendCluster* cluster, NetLink* link,
                 SimObjectStoreConfig config,
                 MetricsRegistry* metrics = nullptr,
                 const std::string& prefix = "objstore",
                 ObjectBucket* bucket = nullptr);

  void Put(const std::string& name, Buffer data, PutCallback done) override;
  void Get(const std::string& name, GetCallback done) override;
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override;
  void Delete(const std::string& name, PutCallback done) override;
  std::vector<std::string> List(const std::string& prefix) const override;
  Result<uint64_t> Head(const std::string& name) const override;

  // Client process crash: in-flight client-side work is abandoned; PUTs whose
  // data already reached the backend still commit (the backend is remote and
  // unaffected).
  void ClientCrash() { epoch_++; }

  ObjectStoreStats stats() const;
  ObjectBucket* bucket() { return bucket_; }

 private:
  // Issues the stripe/metadata disk writes for an object of `size` bytes.
  void BackendWrites(const std::string& name, uint64_t size,
                     std::function<void()> all_done);
  void ReadTiming(uint64_t bytes, std::function<void()> done);
  uint64_t Allocate(int disk, uint32_t len);
  static uint64_t NameHash(const std::string& name, uint64_t salt);

  Simulator* sim_;
  BackendCluster* cluster_;
  NetLink* link_;
  SimObjectStoreConfig config_;
  std::unique_ptr<ObjectBucket> owned_bucket_;
  ObjectBucket* bucket_;
  std::vector<uint64_t> alloc_head_;  // per-disk data-region bump allocator
  uint64_t epoch_ = 0;

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter* c_puts_;
  Counter* c_put_bytes_;
  Counter* c_gets_;
  Counter* c_get_bytes_;
  Counter* c_deletes_;
};

}  // namespace lsvd

#endif  // SRC_OBJSTORE_SIM_OBJECT_STORE_H_
