// lsvdbench: the repository's end-to-end benchmark.
//
//   lsvdbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE] [--repro F1|F2|F3|F4]
//
// Plays one round of the workload (fresh world, set-up, measured phase,
// ending, sweep) at the fixed tally seed, whose failures are the result's
// attempted/failed, then repeats rounds at --seed until S host seconds have
// passed, at least three times. Every round of a seed is the same
// simulation, so virtual-time metrics and failure counts must repeat
// exactly across rounds; host-time metrics are the medians over rounds.
// With --trace 1 the rounds alternate untraced and traced and the
// per-layer metrics of the traced rounds are printed instead of the
// end-to-end ones. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lsvdbench/faults.h"
#include "lsvdbench/trace.h"
#include "lsvdbench/workload.h"
#include "src/util/crc32c.h"

#ifndef LSVDBENCH_BUILD_TYPE
#define LSVDBENCH_BUILD_TYPE "unknown"
#endif

namespace lsvdbench {
namespace {

constexpr int kMinRounds = 3;
// Seed of the round whose failures make up the attempted/failed tally.
constexpr uint64_t kTallySeed = 1;

int Usage(const char* why) {
  std::fprintf(stderr, "lsvdbench: %s\n", why);
  std::fprintf(stderr,
               "usage: lsvdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--repro F1|F2|F3|F4]\n"
               "workloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

double PeakRssMib() {
  rusage u{};
  return getrusage(RUSAGE_SELF, &u) == 0
             ? static_cast<double>(u.ru_maxrss) / 1024.0
             : 0;
}

// Everything a round reports that must repeat exactly for a seed.
std::vector<double> Fingerprint(const WorkloadSpec& w, const RoundResult& r) {
  const FaultTally t = TallyFaults(w, r);
  return {static_cast<double>(r.ops),
          static_cast<double>(r.writes),
          static_cast<double>(r.reads),
          static_cast<double>(r.flushes),
          r.client_iops,
          r.write_p50_us,
          r.write_p99_us,
          r.read_p50_us,
          r.read_p99_us,
          r.backend_write_bytes_per_client_byte,
          r.backend_write_ops_per_client_write,
          static_cast<double>(t.attempted),
          static_cast<double>(t.failed),
          static_cast<double>(t.f1),
          static_cast<double>(t.f2),
          static_cast<double>(t.f3),
          static_cast<double>(t.f4),
          t.unexplained ? 1.0 : 0.0};
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintTally(const char* what, uint64_t seed, const FaultTally& t) {
  std::printf(
      "%s (seed %llu): attempted %llu failed %llu  [F1 lost acked write "
      "%llu, F2 wrong bytes %llu, F3 read error %llu, F4 bcache wrong bytes "
      "%llu]%s\n",
      what, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.f1),
      static_cast<unsigned long long>(t.f2),
      static_cast<unsigned long long>(t.f3),
      static_cast<unsigned long long>(t.f4),
      t.unexplained ? "  UNEXPLAINED FAILURE" : "");
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

}  // namespace
}  // namespace lsvdbench

int main(int argc, char** argv) {
  using namespace lsvdbench;
  std::string workload, spans, repro;
  uint64_t seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--workload" && v != nullptr) {
      workload = v;
    } else if (a == "--seed" && ParseU64(v, &seed)) {
      have_seed = true;
    } else if (a == "--seconds" && ParseU64(v, &seconds) && seconds > 0) {
      have_seconds = true;
    } else if (a == "--trace" && ParseU64(v, &trace) && trace <= 1) {
      have_trace = true;
    } else if (a == "--spans" && v != nullptr) {
      spans = v;
    } else if (a == "--repro" && v != nullptr) {
      repro = v;
    } else {
      return Usage(("bad or unknown argument: " + a).c_str());
    }
    i++;
  }
  if (!repro.empty()) {
    return RunRepro(repro, have_seed ? &seed : nullptr);
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    return Usage(("unknown workload: " + workload).c_str());
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  std::printf("workload: %s\n", spec->name.c_str());
  std::printf("host: cores=%u cpu=\"%s\" build=%s crc32c=%s seed=%llu\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              LSVDBENCH_BUILD_TYPE, lsvd::Crc32cImplName(),
              static_cast<unsigned long long>(seed));

  // The failure tally comes from one round at the fixed tally seed, so its
  // share of failed operations is the same in every run whatever --seed and
  // --seconds are. The known faults are races whose counts move with the op
  // stream; the seeded rounds below are checked just as strictly, and their
  // counts are printed, but they are not part of the tally.
  const RoundResult tally_round = RunRound(*spec, kTallySeed, false);
  const FaultTally tally = TallyFaults(*spec, tally_round);
  bool correct = !tally.unexplained;

  const int64_t start = HostNs();
  const int64_t budget = static_cast<int64_t>(seconds) * 1000000000;
  std::vector<RoundResult> plain, traced;
  std::vector<double> first_print;
  while (true) {
    const bool do_trace = trace == 1 && plain.size() > traced.size();
    const bool keep_spans = do_trace && traced.empty() && !spans.empty();
    RoundResult r = RunRound(*spec, seed, do_trace, keep_spans);
    const std::vector<double> fp = Fingerprint(*spec, r);
    if (first_print.empty()) {
      first_print = fp;
    } else if (fp != first_print) {
      correct = false;  // the simulation did not repeat itself
      std::printf("round %zu differs from round 1 of the same seed\n",
                  plain.size() + traced.size() + 1);
    }
    std::printf(
        "round %zu%s: setup %.3f s, measured %.3f s, check %.3f s, "
        "%.0f events\n",
        plain.size() + traced.size() + 1, do_trace ? " (traced)" : "",
        r.setup_s, r.measured_host_s, r.check_host_s,
        r.layer[LayerIndex("sim.events")]);
    (do_trace ? traced : plain).push_back(std::move(r));
    const size_t done = trace == 1 ? traced.size() : plain.size();
    if (done >= static_cast<size_t>(kMinRounds) &&
        HostNs() - start >= budget) {
      break;
    }
  }
  const RoundResult& r0 = plain.front();
  const FaultTally seeded = TallyFaults(*spec, r0);
  correct = correct && !seeded.unexplained;
  std::printf("measured stream: %llu ops: %llu writes, %llu reads, %llu "
              "flushes\n",
              static_cast<unsigned long long>(r0.ops),
              static_cast<unsigned long long>(r0.writes),
              static_cast<unsigned long long>(r0.reads),
              static_cast<unsigned long long>(r0.flushes));
  PrintTally("tally round", kTallySeed, tally);
  PrintTally("seeded round", seed, seeded);
  std::printf("rounds: %zu untraced, %zu traced\n", plain.size(),
              traced.size());

  auto median = [](const std::vector<RoundResult>& rs, auto field) {
    std::vector<double> v;
    for (const RoundResult& r : rs) {
      v.push_back(field(r));
    }
    return Median(v);
  };
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", median(plain, [](const RoundResult& r) { return r.setup_s; }), "s"},
        {"sim_ops_per_host_s",
         median(plain, [](const RoundResult& r) {
           return static_cast<double>(r.ops) / r.measured_host_s;
         }),
         "ops/s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"client_iops", r0.client_iops, "ops/s"},
        {"write_p50_us", r0.write_p50_us, "us"},
        {"write_p99_us", r0.write_p99_us, "us"},
        {"read_p50_us", r0.read_p50_us, "us"},
        {"read_p99_us", r0.read_p99_us, "us"},
        {"backend_write_bytes_per_client_byte",
         r0.backend_write_bytes_per_client_byte, "ratio"},
        {"backend_write_ops_per_client_write",
         r0.backend_write_ops_per_client_write, "ratio"},
    };
  } else {
    const std::vector<MetricName>& names = PerLayerNames();
    for (size_t i = 0; i < names.size(); i++) {
      // Host time per event is an untraced figure: spans would inflate it.
      const bool from_plain = i == LayerIndex("sim.host_ns_per_event");
      metrics.push_back({names[i].name,
                         median(from_plain ? plain : traced,
                                [i](const RoundResult& r) { return r.layer[i]; }),
                         names[i].unit});
    }
    metrics.push_back(
        {"trace.overhead_ratio",
         median(traced, [](const RoundResult& r) { return r.measured_host_s; }) /
             median(plain, [](const RoundResult& r) { return r.measured_host_s; }),
         "ratio"});
  }

  if (!spans.empty() && !traced.empty()) {
    if (!WriteSpans(traced.front().spans, spans)) {
      std::fprintf(stderr, "lsvdbench: could not write spans to %s\n",
                   spans.c_str());
      return 1;
    }
    std::printf("spans of the first traced round: %zu in %s\n",
                traced.front().spans.size(), spans.c_str());
  }
  std::printf("metrics (%s):\n", trace == 0 ? "end to end" : "per layer");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
