#include "src/util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace lsvd {
namespace {

// A name keeps the kind it was first registered as, in every build type:
// letting a second kind rebind the slot would export the wrong series.
void CheckKind(const std::string& name, bool conflict) {
  if (conflict) {
    std::fprintf(stderr,
                 "MetricsRegistry: metric '%s' re-registered with a "
                 "different kind\n",
                 name.c_str());
    std::abort();
  }
}

// JSON string escape for metric names (ASCII identifiers in practice, but be
// correct regardless).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Formats a double as valid JSON (no NaN/Inf, no trailing noise).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  // Integral values print without a fraction so counters stay integers.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double MetricsSnapshot::Entry::Percentile(double fraction) const {
  if (kind != Kind::kHistogram || count == 0) {
    return 0.0;
  }
  const double target = fraction * static_cast<double>(count);
  double seen = 0;
  for (size_t b = 0; b < buckets.size(); b++) {
    const double c = static_cast<double>(buckets[b].first);
    if (seen + c >= target) {
      const double lower = HistogramBucketLower(static_cast<int>(b), sub_bits);
      const double upper =
          HistogramBucketLower(static_cast<int>(b) + 1, sub_bits);
      const double within = c > 0 ? (target - seen) / c : 0.0;
      return lower + within * (upper - lower);
    }
    seen += c;
  }
  return HistogramBucketLower(static_cast<int>(buckets.size()), sub_bits);
}

double MetricsSnapshot::Entry::Mean() const {
  if (count == 0) {
    return 0.0;
  }
  return value_sum / static_cast<double>(count);
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    const std::string& name) const {
  auto it = entries.find(name);
  return it == entries.end() ? nullptr : &it->second;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const Entry* e = Find(name);
  if (e == nullptr || e->kind != Kind::kCounter) {
    return 0;
  }
  return static_cast<uint64_t>(e->value);
}

double MetricsSnapshot::Percentile(const std::string& name,
                                   double fraction) const {
  const Entry* e = Find(name);
  return e == nullptr ? 0.0 : e->Percentile(fraction);
}

MetricsSnapshot MetricsSnapshot::DiffSince(
    const MetricsSnapshot& baseline) const {
  MetricsSnapshot diff;
  for (const auto& [name, e] : entries) {
    Entry d = e;
    const Entry* base = baseline.Find(name);
    if (base != nullptr && base->kind == e.kind) {
      switch (e.kind) {
        case Kind::kCounter:
          d.value = e.value - base->value;
          break;
        case Kind::kGauge:
          break;  // gauges are instantaneous: keep the newer value
        case Kind::kHistogram: {
          d.count = e.count - base->count;
          d.weight = e.weight - base->weight;
          d.value_sum = e.value_sum - base->value_sum;
          for (size_t b = 0; b < d.buckets.size(); b++) {
            if (b < base->buckets.size()) {
              d.buckets[b].first -= base->buckets[b].first;
              d.buckets[b].second -= base->buckets[b].second;
            }
          }
          break;
        }
      }
    }
    diff.entries.emplace(name, std::move(d));
  }
  return diff;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, e] : entries) {
    if (!first) {
      out << ", ";
    }
    first = false;
    out << "\"" << JsonEscape(name) << "\": ";
    switch (e.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        out << JsonNumber(e.value);
        break;
      case Kind::kHistogram: {
        out << "{\"count\": " << e.count << ", \"weight\": " << e.weight
            << ", \"mean\": " << JsonNumber(e.Mean())
            << ", \"p50\": " << JsonNumber(e.Percentile(0.50))
            << ", \"p99\": " << JsonNumber(e.Percentile(0.99))
            << ", \"buckets\": [";
        bool bfirst = true;
        for (size_t b = 0; b < e.buckets.size(); b++) {
          if (e.buckets[b].first == 0 && e.buckets[b].second == 0) {
            continue;
          }
          if (!bfirst) {
            out << ", ";
          }
          bfirst = false;
          const auto lower = static_cast<uint64_t>(
              HistogramBucketLower(static_cast<int>(b), e.sub_bits));
          out << "[" << lower << ", " << e.buckets[b].first << ", "
              << e.buckets[b].second << "]";
        }
        out << "]}";
        break;
      }
    }
  }
  out << "}";
  return out.str();
}

std::string MetricsSnapshot::ToTable() const {
  size_t name_width = 4;
  for (const auto& [name, e] : entries) {
    name_width = std::max(name_width, name.size());
  }
  std::ostringstream out;
  for (const auto& [name, e] : entries) {
    out << name << std::string(name_width - name.size() + 2, ' ');
    switch (e.kind) {
      case Kind::kCounter:
        out << static_cast<uint64_t>(e.value);
        break;
      case Kind::kGauge: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", e.value);
        out << buf;
        break;
      }
      case Kind::kHistogram: {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "count=%llu mean=%.1f p50=%.1f p99=%.1f",
                      static_cast<unsigned long long>(e.count), e.Mean(),
                      e.Percentile(0.50), e.Percentile(0.99));
        out << buf;
        break;
      }
    }
    out << "\n";
  }
  return out.str();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Slot& slot = slots_[name];
  if (slot.counter == nullptr) {
    CheckKind(name, slot.gauge != nullptr || slot.histogram != nullptr ||
                        slot.callback);
    slot.kind = MetricsSnapshot::Kind::kCounter;
    slot.counter = std::make_unique<Counter>();
  }
  return slot.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Slot& slot = slots_[name];
  if (slot.gauge == nullptr) {
    CheckKind(name, slot.counter != nullptr || slot.histogram != nullptr);
    slot.kind = MetricsSnapshot::Kind::kGauge;
    slot.gauge = std::make_unique<Gauge>();
  }
  return slot.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         int sub_bits) {
  Slot& slot = slots_[name];
  if (slot.histogram == nullptr) {
    CheckKind(name, slot.counter != nullptr || slot.gauge != nullptr ||
                        slot.callback);
    slot.kind = MetricsSnapshot::Kind::kHistogram;
    slot.histogram = std::make_unique<Histogram>(sub_bits);
  }
  return slot.histogram.get();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       std::function<double()> fn) {
  Slot& slot = slots_[name];
  CheckKind(name, slot.counter != nullptr || slot.histogram != nullptr);
  slot.kind = MetricsSnapshot::Kind::kGauge;
  slot.callback = std::move(fn);
}

void MetricsRegistry::UnregisterCallback(const std::string& name) {
  auto it = slots_.find(name);
  if (it == slots_.end() || !it->second.callback) {
    return;
  }
  // Freeze the final value so the metric survives the component.
  if (it->second.gauge == nullptr) {
    it->second.gauge = std::make_unique<Gauge>();
  }
  it->second.gauge->Set(it->second.callback());
  it->second.callback = nullptr;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, slot] : slots_) {
    MetricsSnapshot::Entry e;
    e.kind = slot.kind;
    switch (slot.kind) {
      case MetricsSnapshot::Kind::kCounter:
        e.value = static_cast<double>(slot.counter->value());
        break;
      case MetricsSnapshot::Kind::kGauge:
        e.value = slot.callback ? slot.callback() : slot.gauge->value();
        break;
      case MetricsSnapshot::Kind::kHistogram: {
        const Histogram& h = *slot.histogram;
        e.count = h.total_count();
        e.weight = h.total_weight();
        e.sub_bits = h.sub_bits();
        e.value_sum = h.value_sum();
        e.buckets.reserve(static_cast<size_t>(h.num_buckets()));
        for (int b = 0; b < h.num_buckets(); b++) {
          e.buckets.emplace_back(h.BucketCount(b), h.BucketWeight(b));
        }
        break;
      }
    }
    snap.entries.emplace(name, std::move(e));
  }
  return snap;
}

}  // namespace lsvd
