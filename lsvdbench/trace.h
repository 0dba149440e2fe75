// Spans recorded at the benchmark's layer boundaries, and the thin
// decorators that record them around VirtualDisk and ObjectStore calls and
// their completion callbacks.
//
// A span has a name, a layer, start and end in host time and in virtual
// time, a parent (the span open on the host call stack when it began) and
// the id of the client operation it serves. Host-time spans nest: a
// layer's self time is its spans' durations minus the parts their child
// spans cover. Virtual-time spans of asynchronous operations (an object
// PUT from call to callback) are recorded as their own spans too. Spans
// stay in memory and are written out when the run ends.
#ifndef LSVDBENCH_TRACE_H_
#define LSVDBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/blockdev/virtual_disk.h"
#include "src/objstore/object_store.h"
#include "src/sim/simulator.h"

namespace lsvdbench {

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t { kClient, kLsvd, kObjstore, kBcache, kRbd, kCount };

inline const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kClient: return "client";
    case Layer::kLsvd: return "lsvd";
    case Layer::kObjstore: return "objstore";
    case Layer::kBcache: return "bcache";
    case Layer::kRbd: return "rbd";
    case Layer::kCount: break;
  }
  return "?";
}

struct Span {
  const char* name;
  Layer layer;
  uint32_t parent;  // index + 1 into the span list; 0 for a root
  uint64_t op;      // client operation id; 0 for background work
  int64_t host_start;
  int64_t host_end;
  int64_t virt_start;
  int64_t virt_end;
};

// Per-name totals kept as spans close, so metrics need no second pass.
struct SpanTotals {
  uint64_t count = 0;
  int64_t host_ns = 0;           // inclusive host time of synchronous spans
  std::vector<int64_t> virt_ns;  // durations of asynchronous spans
};

class Tracer {
 public:
  explicit Tracer(lsvd::Simulator* sim) : sim_(sim) {}

  // Opens a synchronous span on the host call stack.
  void Begin(const char* name, Layer layer) {
    Frame f;
    f.index = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{name, layer, Parent(), CurrentOp(), 0, 0,
                          sim_->now(), sim_->now()});
    stack_.push_back(f);
    spans_.back().host_start = HostNs();
  }
  void End() {
    const int64_t now = HostNs();
    Frame f = stack_.back();
    stack_.pop_back();
    Span& s = spans_[f.index];
    s.host_end = now;
    s.virt_end = sim_->now();
    const int64_t dur = s.host_end - s.host_start;
    self_ns_[static_cast<int>(s.layer)] += dur - f.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    } else {
      traced_root_ns_ += dur;
    }
    SpanTotals& t = Totals(s.name);
    t.count++;
    t.host_ns += dur;
  }

  // Records an asynchronous span from `virt_start` to now in virtual time.
  void Async(const char* name, Layer layer, uint64_t op, int64_t host_start,
             int64_t virt_start) {
    spans_.push_back(Span{name, layer, Parent(), op, host_start, HostNs(),
                          virt_start, sim_->now()});
    Totals(name).virt_ns.push_back(sim_->now() - virt_start);
  }

  int64_t virt_now() const { return sim_->now(); }

  // The client operation whose work is on the host stack.
  uint64_t CurrentOp() const { return op_stack_.empty() ? 0 : op_stack_.back(); }
  void PushOp(uint64_t op) { op_stack_.push_back(op); }
  void PopOp() { op_stack_.pop_back(); }

  int64_t self_ns(Layer l) const { return self_ns_[static_cast<int>(l)]; }
  // Host time spent inside any root span; the rest of a phase is the
  // simulator engine and the models no decorator wraps.
  int64_t traced_root_ns() const { return traced_root_ns_; }
  const SpanTotals* Find(const char* name) const {
    for (const auto& [n, t] : totals_) {
      if (SameName(n, name)) {
        return &t;
      }
    }
    return nullptr;
  }

  // Hands the recorded spans over; the tracer keeps its totals.
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  struct Frame {
    uint32_t index = 0;
    int64_t child_ns = 0;
  };

  // Span names are string literals, usually one pointer per name.
  static bool SameName(const char* a, const char* b) {
    return a == b || std::strcmp(a, b) == 0;
  }
  uint32_t Parent() const { return stack_.empty() ? 0 : stack_.back().index + 1; }
  SpanTotals& Totals(const char* name) {
    for (auto& [n, t] : totals_) {
      if (SameName(n, name)) {
        return t;
      }
    }
    totals_.emplace_back(name, SpanTotals{});
    return totals_.back().second;
  }

  lsvd::Simulator* sim_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::vector<uint64_t> op_stack_;
  std::vector<std::pair<const char*, SpanTotals>> totals_;
  int64_t self_ns_[static_cast<int>(Layer::kCount)] = {};
  int64_t traced_root_ns_ = 0;
};

// Writes `spans` as one JSON object per line; false on an I/O error.
inline bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"op\":%llu,\"name\":\"%s\","
                 "\"layer\":\"%s\",\"host_start_ns\":%lld,"
                 "\"host_end_ns\":%lld,\"virt_start_ns\":%lld,"
                 "\"virt_end_ns\":%lld}\n",
                 i + 1, s.parent, static_cast<unsigned long long>(s.op),
                 s.name, LayerName(s.layer),
                 static_cast<long long>(s.host_start),
                 static_cast<long long>(s.host_end),
                 static_cast<long long>(s.virt_start),
                 static_cast<long long>(s.virt_end));
  }
  return std::fclose(f) == 0;
}

// RAII guard for a synchronous span.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, Layer layer) : t_(t) {
    t_->Begin(name, layer);
  }
  ~SpanScope() { t_->End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
};

// VirtualDisk decorator: spans the call into `inner` (layer `layer`), the
// operation from call to completion in virtual time, and the completion
// callback, which runs the caller's code (layer `caller`).
class TracedDisk : public lsvd::VirtualDisk {
 public:
  struct Names {
    const char* write_call;
    const char* read_call;
    const char* flush_call;
    const char* write_op;
    const char* read_op;
    const char* flush_op;
    const char* callback;
  };

  TracedDisk(Tracer* t, lsvd::VirtualDisk* inner, Layer layer, Layer caller,
             Names names)
      : t_(t), inner_(inner), layer_(layer), caller_(caller), n_(names) {}

  uint64_t size() const override { return inner_->size(); }

  void Write(uint64_t offset, lsvd::Buffer data,
             std::function<void(lsvd::Status)> done) override {
    SpanScope s(t_, n_.write_call, layer_);
    inner_->Write(offset, std::move(data), Wrap(n_.write_op, std::move(done)));
  }
  void Read(uint64_t offset, uint64_t len,
            std::function<void(lsvd::Result<lsvd::Buffer>)> done) override {
    SpanScope s(t_, n_.read_call, layer_);
    inner_->Read(offset, len, Wrap(n_.read_op, std::move(done)));
  }
  void Flush(std::function<void(lsvd::Status)> done) override {
    SpanScope s(t_, n_.flush_call, layer_);
    inner_->Flush(Wrap(n_.flush_op, std::move(done)));
  }

 private:
  template <typename R>
  std::function<void(R)> Wrap(const char* op_name,
                              std::function<void(R)> done) {
    return [this, op_name, op = t_->CurrentOp(), h0 = HostNs(),
            v0 = t_->virt_now(), done = std::move(done)](R r) mutable {
      t_->Async(op_name, layer_, op, h0, v0);
      t_->PushOp(op);
      {
        SpanScope s(t_, n_.callback, caller_);
        done(std::move(r));
      }
      t_->PopOp();
    };
  }

  Tracer* t_;
  lsvd::VirtualDisk* inner_;
  Layer layer_;
  Layer caller_;
  Names n_;
};

// ObjectStore decorator: spans each call (layer objstore), each operation
// from call to callback in virtual time, and each callback, which runs
// LSVD's completion handling (layer lsvd). Counts failed operations.
class TracedStore : public lsvd::ObjectStore {
 public:
  TracedStore(Tracer* t, lsvd::ObjectStore* inner) : t_(t), inner_(inner) {}

  void Put(const std::string& name, lsvd::Buffer data,
           PutCallback done) override {
    SpanScope s(t_, "objstore.put.call", Layer::kObjstore);
    inner_->Put(name, std::move(data), Wrap("objstore.put", std::move(done)));
  }
  void Get(const std::string& name, GetCallback done) override {
    SpanScope s(t_, "objstore.get.call", Layer::kObjstore);
    inner_->Get(name, WrapGet(std::move(done)));
  }
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override {
    SpanScope s(t_, "objstore.get.call", Layer::kObjstore);
    inner_->GetRange(name, offset, len, WrapGet(std::move(done)));
  }
  void Delete(const std::string& name, PutCallback done) override {
    SpanScope s(t_, "objstore.delete.call", Layer::kObjstore);
    inner_->Delete(name, Wrap("objstore.delete", std::move(done)));
  }
  std::vector<std::string> List(const std::string& prefix) const override {
    return inner_->List(prefix);
  }
  lsvd::Result<uint64_t> Head(const std::string& name) const override {
    return inner_->Head(name);
  }

  uint64_t failed_ops() const { return failed_; }

 private:
  PutCallback Wrap(const char* op_name, PutCallback done) {
    return [this, op_name, op = t_->CurrentOp(), h0 = HostNs(),
            v0 = t_->virt_now(), done = std::move(done)](lsvd::Status st) {
      t_->Async(op_name, Layer::kObjstore, op, h0, v0);
      failed_ += st.ok() ? 0 : 1;
      t_->PushOp(op);
      {
        SpanScope s(t_, "objstore.callback", Layer::kLsvd);
        done(st);
      }
      t_->PopOp();
    };
  }
  GetCallback WrapGet(GetCallback done) {
    return [this, op = t_->CurrentOp(), h0 = HostNs(), v0 = t_->virt_now(),
            done = std::move(done)](lsvd::Result<lsvd::Buffer> r) mutable {
      t_->Async("objstore.get", Layer::kObjstore, op, h0, v0);
      failed_ += r.ok() ? 0 : 1;
      t_->PushOp(op);
      {
        SpanScope s(t_, "objstore.callback", Layer::kLsvd);
        done(std::move(r));
      }
      t_->PopOp();
    };
  }

  Tracer* t_;
  lsvd::ObjectStore* inner_;
  uint64_t failed_ = 0;
};

}  // namespace lsvdbench

#endif  // LSVDBENCH_TRACE_H_
