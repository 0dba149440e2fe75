#include "src/objstore/sim_object_store.h"

#include <utility>

namespace lsvd {
namespace {

// Data-region allocations start above the per-disk WAL region.
constexpr uint64_t kDataRegionBase = 8 * kGiB;

uint64_t RoundUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

SimObjectStore::SimObjectStore(Simulator* sim, BackendCluster* cluster,
                               NetLink* link, SimObjectStoreConfig config,
                               MetricsRegistry* metrics,
                               const std::string& prefix,
                               ObjectBucket* bucket)
    : sim_(sim), cluster_(cluster), link_(link), config_(config) {
  if (bucket == nullptr) {
    owned_bucket_ = std::make_unique<ObjectBucket>();
    bucket = owned_bucket_.get();
  }
  bucket_ = bucket;
  alloc_head_.assign(static_cast<size_t>(cluster_->num_disks()),
                     kDataRegionBase);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_puts_ = metrics_->GetCounter(prefix + ".puts");
  c_put_bytes_ = metrics_->GetCounter(prefix + ".put_bytes");
  c_gets_ = metrics_->GetCounter(prefix + ".gets");
  c_get_bytes_ = metrics_->GetCounter(prefix + ".get_bytes");
  c_deletes_ = metrics_->GetCounter(prefix + ".deletes");
  metrics_->RegisterCallback(prefix + ".object_count", [this] {
    return static_cast<double>(bucket_->objects.size());
  });
}

ObjectStoreStats SimObjectStore::stats() const {
  ObjectStoreStats s;
  s.puts = c_puts_->value();
  s.put_bytes = c_put_bytes_->value();
  s.gets = c_gets_->value();
  s.get_bytes = c_get_bytes_->value();
  s.deletes = c_deletes_->value();
  return s;
}

uint64_t SimObjectStore::NameHash(const std::string& name, uint64_t salt) {
  uint64_t h = 1469598103934665603ULL ^ salt;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t SimObjectStore::Allocate(int disk, uint32_t len) {
  auto& head = alloc_head_[static_cast<size_t>(disk)];
  const uint64_t offset = head;
  head += RoundUp(len, 4 * kKiB);
  if (head >= cluster_->disk_capacity()) {
    head = kDataRegionBase;
  }
  return offset;
}

void SimObjectStore::BackendWrites(const std::string& name, uint64_t size,
                                   std::function<void()> all_done) {
  // Counts outstanding disk writes; fires all_done when the last completes.
  auto remaining = std::make_shared<int>(0);
  auto issued_all = std::make_shared<bool>(false);
  auto one_done = [remaining, issued_all, all_done]() {
    (*remaining)--;
    if (*issued_all && *remaining == 0) {
      all_done();
    }
  };

  const uint64_t stripes =
      (size + config_.stripe_size - 1) / config_.stripe_size;
  for (uint64_t s = 0; s < stripes; s++) {
    const uint64_t stripe_len =
        std::min(config_.stripe_size, size - s * config_.stripe_size);
    const uint64_t hash = NameHash(name, s);

    if (config_.placement == SimObjectStoreConfig::Placement::kErasure42) {
      // 4 data + 2 parity chunks of stripe/4 bytes each.
      const auto chunk_len = static_cast<uint32_t>(
          RoundUp((stripe_len + 3) / 4, 4 * kKiB));
      for (int c = 0; c < 6; c++) {
        const int disk = cluster_->PickDisk(hash, c);
        const uint64_t off = Allocate(disk, chunk_len);
        (*remaining)++;
        cluster_->Write(disk, off, chunk_len, one_done);
      }
    } else {
      const auto copy_len =
          static_cast<uint32_t>(RoundUp(stripe_len, 4 * kKiB));
      for (int c = 0; c < 3; c++) {
        const int disk = cluster_->PickDisk(hash, c);
        const uint64_t off = Allocate(disk, copy_len);
        (*remaining)++;
        cluster_->Write(disk, off, copy_len, one_done);
      }
    }

    // Small metadata / OSD-journal writes accompanying the stripe.
    for (uint32_t m = 0; m < config_.metadata_writes_per_stripe; m++) {
      const int disk = cluster_->PickDisk(hash, static_cast<int>(m % 3));
      (*remaining)++;
      cluster_->WalAppend(disk, config_.metadata_write_size, one_done);
    }
  }
  *issued_all = true;
  if (*remaining == 0) {
    // Zero-byte object: commit immediately.
    sim_->After(0, all_done);
  }
}

void SimObjectStore::Put(const std::string& name, Buffer data,
                         PutCallback done) {
  if (bucket_->objects.contains(name)) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::InvalidArgument("object exists (objects are immutable)"));
    });
    return;
  }
  c_puts_->Inc();
  c_put_bytes_->Inc(data.size());
  const uint64_t epoch = epoch_;
  const uint64_t size = data.size();
  // Phase 1: the object body crosses the client link.
  link_->SendToBackend(size, [this, epoch, name, data = std::move(data),
                              done = std::move(done)]() mutable {
    if (epoch != epoch_) {
      return;  // client crashed mid-transfer: PUT abandoned
    }
    // Phase 2 (after propagation + gateway overhead): backend disk writes;
    // the object commits when they all complete, regardless of later client
    // failures.
    sim_->After(link_->half_rtt() + config_.put_overhead,
                [this, name, data = std::move(data),
                 done = std::move(done)]() mutable {
      const uint64_t put_epoch = epoch_;
      const uint64_t size = data.size();
      BackendWrites(name, size, [this, put_epoch, name,
                                 data = std::move(data),
                                 done = std::move(done)]() mutable {
        bucket_->objects[name] = std::move(data);
        // Phase 3: acknowledgement back to the client.
        sim_->After(link_->half_rtt(),
                    [this, put_epoch, done = std::move(done)]() {
          if (put_epoch != epoch_) {
            return;  // ack lost: object exists but client never learns
          }
          done(Status::Ok());
        });
      });
    });
  });
}

void SimObjectStore::ReadTiming(uint64_t bytes, std::function<void()> done) {
  // Request out (negligible size) + gateway overhead + backend disk read(s)
  // + body back.
  const uint64_t epoch = epoch_;
  sim_->After(link_->half_rtt() + config_.get_overhead,
              [this, epoch, bytes, done = std::move(done)]() mutable {
    // Charge the read against the data chunks it covers.
    const auto chunk = static_cast<uint32_t>(
        std::min<uint64_t>(RoundUp(std::max<uint64_t>(bytes, 4 * kKiB),
                                   4 * kKiB),
                           UINT32_MAX));
    const int disk = cluster_->PickDisk(NameHash("read", alloc_head_[0]),
                                        0);
    cluster_->Read(disk, Allocate(disk, 0), chunk,
                   [this, epoch, bytes, done = std::move(done)]() {
      link_->ReceiveFromBackend(bytes, [this, epoch,
                                        done = std::move(done)]() {
        if (epoch != epoch_) {
          return;
        }
        sim_->After(link_->half_rtt(), done);
      });
    });
  });
}

void SimObjectStore::Get(const std::string& name, GetCallback done) {
  auto it = bucket_->objects.find(name);
  if (it == bucket_->objects.end()) {
    sim_->After(0, [done = std::move(done), name]() {
      done(Status::NotFound(name));
    });
    return;
  }
  c_gets_->Inc();
  c_get_bytes_->Inc(it->second.size());
  Buffer data = it->second;
  ReadTiming(data.size(), [done = std::move(done), data = std::move(data)]() {
    done(data);
  });
}

void SimObjectStore::GetRange(const std::string& name, uint64_t offset,
                              uint64_t len, GetCallback done) {
  auto it = bucket_->objects.find(name);
  if (it == bucket_->objects.end()) {
    sim_->After(0, [done = std::move(done), name]() {
      done(Status::NotFound(name));
    });
    return;
  }
  if (offset + len > it->second.size()) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::OutOfRange("range beyond object size"));
    });
    return;
  }
  c_gets_->Inc();
  c_get_bytes_->Inc(len);
  Buffer data = it->second.Slice(offset, len);
  ReadTiming(len, [done = std::move(done), data = std::move(data)]() {
    done(data);
  });
}

void SimObjectStore::Delete(const std::string& name, PutCallback done) {
  c_deletes_->Inc();
  bucket_->objects.erase(name);
  const uint64_t epoch = epoch_;
  sim_->After(link_->rtt(), [this, epoch, done = std::move(done)]() {
    if (epoch != epoch_) {
      return;
    }
    done(Status::Ok());
  });
}

std::vector<std::string> SimObjectStore::List(
    const std::string& prefix) const {
  std::vector<std::string> names;
  for (auto it = bucket_->objects.lower_bound(prefix); it != bucket_->objects.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    names.push_back(it->first);
  }
  return names;
}

Result<uint64_t> SimObjectStore::Head(const std::string& name) const {
  auto it = bucket_->objects.find(name);
  if (it == bucket_->objects.end()) {
    return Status::NotFound(name);
  }
  return it->second.size();
}

}  // namespace lsvd
