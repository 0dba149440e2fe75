// Unit tests for the metrics registry: registration semantics, snapshot /
// diff arithmetic, and the JSON export (validated with a minimal parser so
// the output is known to be machine-readable, not just string-shaped).
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/metrics.h"

namespace lsvd {
namespace {

// --- minimal JSON parser (objects, arrays, strings, numbers) ---
//
// Just enough grammar to round-trip MetricsSnapshot::ToJson(); anything the
// exporter emits that this rejects is a bug in the exporter.

struct JsonValue {
  enum class Type { kNumber, kString, kObject, kArray };
  Type type = Type::kNumber;
  double number = 0.0;
  std::string string;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_]) != 0) {
      pos_++;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        pos_++;
        if (pos_ >= text_.size()) {
          return false;
        }
      }
      out->push_back(text_[pos_++]);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      pos_++;
      out->type = JsonValue::Type::kObject;
      SkipSpace();
      if (Consume('}')) {
        return true;
      }
      while (true) {
        std::string key;
        JsonValue value;
        if (!ParseString(&key) || !Consume(':') || !ParseValue(&value)) {
          return false;
        }
        out->object.emplace(std::move(key), std::move(value));
        if (Consume('}')) {
          return true;
        }
        if (!Consume(',')) {
          return false;
        }
      }
    }
    if (c == '[') {
      pos_++;
      out->type = JsonValue::Type::kArray;
      SkipSpace();
      if (Consume(']')) {
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->array.push_back(std::move(value));
        if (Consume(']')) {
          return true;
        }
        if (!Consume(',')) {
          return false;
        }
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    // Number.
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      pos_++;
    }
    if (pos_ == start) {
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- registration ---

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.ops");
  Counter* c2 = reg.GetCounter("a.ops");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.GetHistogram("a.lat_us");
  Histogram* h2 = reg.GetHistogram("a.lat_us");
  EXPECT_EQ(h1, h2);
  Gauge* g1 = reg.GetGauge("a.depth");
  EXPECT_EQ(g1, reg.GetGauge("a.depth"));
  EXPECT_EQ(reg.size(), 3u);
}

// A name asked for as a second kind aborts with the name in every build
// type (tier-1 builds define NDEBUG, so an assert would let the slot be
// silently rebound). A gauge may still share its name with a callback.
TEST(MetricsRegistryDeathTest, WrongKindAbortsWithName) {
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.GetCounter("dup.ops");
        reg.GetGauge("dup.ops");
      },
      "dup\\.ops");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.GetHistogram("dup.lat_us");
        reg.GetCounter("dup.lat_us");
      },
      "dup\\.lat_us");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.GetGauge("dup.depth");
        reg.GetHistogram("dup.depth");
      },
      "dup\\.depth");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.GetCounter("dup.cb");
        reg.RegisterCallback("dup.cb", [] { return 1.0; });
      },
      "dup\\.cb");
  MetricsRegistry reg;
  reg.RegisterCallback("shared", [] { return 1.0; });
  EXPECT_NE(reg.GetGauge("shared"), nullptr);
}

TEST(MetricsRegistry, CounterGaugeHistogramFlowIntoSnapshot) {
  MetricsRegistry reg;
  reg.GetCounter("writes")->Inc();
  reg.GetCounter("writes")->Inc(41);
  reg.GetGauge("depth")->Set(3.5);
  reg.GetHistogram("lat_us")->Add(100);
  reg.GetHistogram("lat_us")->Add(200);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("writes"), 42u);
  const MetricsSnapshot::Entry* depth = snap.Find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, MetricsSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(depth->value, 3.5);
  const MetricsSnapshot::Entry* lat = snap.Find("lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_NEAR(lat->Mean(), 150.0, 1e-9);
  EXPECT_GT(snap.Percentile("lat_us", 0.5), 0.0);
  // Absent / wrong-kind lookups are harmless zeros.
  EXPECT_EQ(snap.CounterValue("no.such"), 0u);
  EXPECT_EQ(snap.Percentile("depth", 0.5), 0.0);
}

TEST(MetricsRegistry, FineGrainedHistogramResolutionSurvivesSnapshot) {
  MetricsRegistry reg;
  // Pre-creation wins: a bench creates the fine-grained histogram first and
  // a later default-geometry GetHistogram resolves the same instance.
  Histogram* h = reg.GetHistogram("lat_us", /*sub_bits=*/6);
  EXPECT_EQ(reg.GetHistogram("lat_us"), h);
  EXPECT_EQ(h->sub_bits(), 6);
  for (int i = 0; i < 1000; i++) {
    h->Add(100000);
  }
  // The snapshot re-derives bucket bounds from sub_bits, so percentiles keep
  // the 2^-6 relative resolution instead of collapsing to octave bounds.
  const double p999 = reg.Snapshot().Percentile("lat_us", 0.999);
  EXPECT_NEAR(p999, 100000.0, 100000.0 / 64 + 1e-9);
  EXPECT_DOUBLE_EQ(p999, h->Percentile(0.999));
}

TEST(MetricsRegistry, CallbackGaugesSampleAtSnapshotTime) {
  MetricsRegistry reg;
  double live = 1.0;
  reg.RegisterCallback("util", [&live] { return live; });
  EXPECT_DOUBLE_EQ(reg.Snapshot().Find("util")->value, 1.0);
  live = 0.25;
  EXPECT_DOUBLE_EQ(reg.Snapshot().Find("util")->value, 0.25);
  // Re-registration replaces the callback (components sharing a registry).
  reg.RegisterCallback("util", [] { return 9.0; });
  EXPECT_DOUBLE_EQ(reg.Snapshot().Find("util")->value, 9.0);
  EXPECT_EQ(reg.size(), 1u);
}

// --- snapshot diff ---

TEST(MetricsSnapshot, DiffSubtractsCountersAndHistograms) {
  MetricsRegistry reg;
  Counter* ops = reg.GetCounter("ops");
  Histogram* lat = reg.GetHistogram("lat_us");
  Gauge* depth = reg.GetGauge("depth");

  ops->Inc(10);
  lat->Add(100);
  depth->Set(1.0);
  const MetricsSnapshot before = reg.Snapshot();

  ops->Inc(5);
  lat->Add(100);
  lat->Add(3000);
  depth->Set(7.0);
  const MetricsSnapshot diff = reg.Snapshot().DiffSince(before);

  EXPECT_EQ(diff.CounterValue("ops"), 5u);  // only the interval
  const MetricsSnapshot::Entry* dlat = diff.Find("lat_us");
  ASSERT_NE(dlat, nullptr);
  EXPECT_EQ(dlat->count, 2u);
  EXPECT_NEAR(dlat->value_sum, 3100.0, 1e-9);
  // Gauges are instantaneous: the diff keeps the newer value.
  EXPECT_DOUBLE_EQ(diff.Find("depth")->value, 7.0);
  // Entries absent from the baseline pass through unchanged.
  MetricsSnapshot empty;
  EXPECT_EQ(reg.Snapshot().DiffSince(empty).CounterValue("ops"), 15u);
}

TEST(MetricsSnapshot, DiffBucketsSubtractPerBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h");
  h->Add(10, 7);  // bucket 3
  const MetricsSnapshot before = reg.Snapshot();
  h->Add(10, 5);
  h->Add(1000, 2);  // bucket 9
  const MetricsSnapshot diff = reg.Snapshot().DiffSince(before);
  const MetricsSnapshot::Entry* e = diff.Find("h");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->buckets[3].first, 1u);   // one new sample in [8, 16)
  EXPECT_EQ(e->buckets[3].second, 5u);  // its weight
  EXPECT_EQ(e->buckets[9].first, 1u);
  EXPECT_EQ(e->weight, 7u);  // 5 + 2 new weight
}

// --- JSON export ---

TEST(MetricsSnapshot, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.GetCounter("lsvd.writes")->Inc(1234);
  reg.GetGauge("backend.utilization")->Set(0.625);
  Histogram* h = reg.GetHistogram("lsvd.write.ack_us");
  for (int i = 0; i < 100; i++) {
    h->Add(300);
  }
  h->Add(9000);

  const std::string json = reg.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be single-line";

  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_EQ(root.object.size(), 3u);

  const JsonValue* writes = root.Get("lsvd.writes");
  ASSERT_NE(writes, nullptr);
  EXPECT_DOUBLE_EQ(writes->number, 1234.0);

  const JsonValue* util = root.Get("backend.utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->number, 0.625);

  const JsonValue* ack = root.Get("lsvd.write.ack_us");
  ASSERT_NE(ack, nullptr);
  ASSERT_EQ(ack->type, JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(ack->Get("count")->number, 101.0);
  // p50 falls in the 300 us bucket [256, 512); p99 stays below the 9000 us
  // bucket's upper edge.
  EXPECT_GE(ack->Get("p50")->number, 256.0);
  EXPECT_LT(ack->Get("p50")->number, 512.0);
  EXPECT_LE(ack->Get("p99")->number, 16384.0);
  // Buckets export as [lower, count, weight] triples, empty buckets skipped.
  const JsonValue* buckets = ack->Get("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->array[0].array[0].number, 256.0);
  EXPECT_DOUBLE_EQ(buckets->array[0].array[1].number, 100.0);
  EXPECT_DOUBLE_EQ(buckets->array[1].array[0].number, 8192.0);
}

TEST(MetricsSnapshot, JsonSnapshotSurvivesRegistryDeath) {
  MetricsSnapshot snap;
  {
    MetricsRegistry reg;
    reg.GetCounter("c")->Inc(3);
    double x = 1.5;
    reg.RegisterCallback("cb", [&x] { return x; });
    snap = reg.Snapshot();
  }
  // The snapshot is plain data: usable after the registry (and the callback's
  // captures) are gone.
  EXPECT_EQ(snap.CounterValue("c"), 3u);
  EXPECT_DOUBLE_EQ(snap.Find("cb")->value, 1.5);
  JsonValue root;
  ASSERT_TRUE(JsonParser(snap.ToJson()).Parse(&root));
}

TEST(MetricsSnapshot, TableListsEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("a.very.long.metric.name.for.alignment")->Inc(7);
  reg.GetCounter("b")->Inc(9);
  reg.GetHistogram("lat")->Add(50);
  const std::string table = reg.ToTable();
  EXPECT_NE(table.find("a.very.long.metric.name.for.alignment"),
            std::string::npos);
  EXPECT_NE(table.find("b"), std::string::npos);
  EXPECT_NE(table.find("count=1"), std::string::npos);
}

// --- callback lifetime ---

TEST(MetricsRegistry, UnregisterCallbackFreezesLastValue) {
  MetricsRegistry reg;
  double v = 42.0;
  reg.RegisterCallback("g", [&] { return v; });
  EXPECT_EQ(reg.Snapshot().Find("g")->value, 42.0);
  reg.UnregisterCallback("g");
  v = 99.0;  // no longer sampled
  EXPECT_EQ(reg.Snapshot().Find("g")->value, 42.0);
  reg.UnregisterCallback("g");        // idempotent
  reg.UnregisterCallback("missing");  // unknown name: no-op
}

TEST(MetricsRegistry, CallbackGuardUnregistersOnDestruction) {
  MetricsRegistry reg;
  {
    struct Component {
      double state = 7.0;
      CallbackGuard guard;
    } comp;
    comp.guard.Register(&reg, "comp.state", [&comp] { return comp.state; });
    EXPECT_EQ(reg.Snapshot().Find("comp.state")->value, 7.0);
  }
  // The component is gone; snapshotting must not touch it (this is how a
  // detached volume's gauges behave on the shared host registry).
  EXPECT_EQ(reg.Snapshot().Find("comp.state")->value, 7.0);
}

// --- RecordLatencyUs ---

TEST(RecordLatencyUs, ConvertsAndGuards) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat_us");
  RecordLatencyUs(h, 5000);  // 5 us
  EXPECT_EQ(h->total_count(), 1u);
  EXPECT_EQ(h->BucketCount(2), 1u);  // 5 lands in [4, 8)
  RecordLatencyUs(h, -1);            // negative interval: dropped
  RecordLatencyUs(nullptr, 5000);    // null histogram: no-op
  EXPECT_EQ(h->total_count(), 1u);
}

}  // namespace
}  // namespace lsvd
