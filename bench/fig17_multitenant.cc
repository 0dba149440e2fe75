// Figure 17 (extension): multi-tenant client host — noisy neighbor vs QoS.
//
// The paper deploys LSVD as a hypervisor-hosted cache shared by many volumes
// (§4.3); this bench quantifies what that sharing costs a latency-sensitive
// tenant and what the host's per-volume QoS throttle buys back. One client
// host carries two volumes:
//   - writer: a sequential write-heavy tenant (256 KiB seq, QD 16)
//   - reader: a latency-sensitive tenant (4 KiB random reads, QD 4, cache
//     warmed so reads are served from the shared SSD)
// Three scenarios: reader alone (baseline), both tenants with QoS off, and
// both tenants with the writer under a token-bucket bandwidth cap plus a
// host-wide PUT window. Reported: per-tenant throughput and the reader's
// p99 read latency relative to solo.
#include "bench/common.h"

using namespace lsvd;
using namespace lsvd::bench;

namespace {

struct ScenarioResult {
  double writer_mbps = 0;
  double reader_kiops = 0;
  double reader_p99_us = 0;
  std::string metrics_json;
};

// Warm the reader's cache so its random reads hit the shared SSD.
void WarmReads(World* world, VirtualDisk* disk) {
  FioConfig fio;
  fio.pattern = FioConfig::Pattern::kSeqRead;
  fio.block_size = 256 * kKiB;
  fio.volume_size = disk->size();
  fio.max_bytes = disk->size();
  Driver driver(&world->sim, disk, MakeFioGen(fio), 16);
  bool done = false;
  driver.Run([&] { done = true; });
  world->sim.Run();
  if (!done) {
    std::abort();
  }
}

ScenarioResult RunScenario(uint64_t volume, double seconds, bool with_writer,
                           bool qos_on, double writer_cap_mbps,
                           bool want_json) {
  ClientHostConfig hc;
  if (qos_on) {
    hc.host_put_window = 8;  // writer cannot monopolize backend PUTs
  }
  World world(ClusterConfig::SsdPool(), hc);

  LsvdConfig reader_config = DefaultLsvdConfig(volume, kLargeCache);
  reader_config.volume_name = "reader";
  reader_config.SetPerVolumeMetricPrefixes();
  LsvdSystem reader_sys = LsvdSystem::Create(&world, reader_config);
  Precondition(&world, reader_sys.disk.get());
  WarmReads(&world, reader_sys.disk.get());

  LsvdSystem writer_sys;
  if (with_writer) {
    LsvdConfig writer_config = DefaultLsvdConfig(volume, kSmallCache);
    writer_config.volume_name = "writer";
    writer_config.SetPerVolumeMetricPrefixes();
    if (qos_on) {
      writer_config.qos.bytes_per_sec =
          static_cast<uint64_t>(writer_cap_mbps * 1e6);
      writer_config.qos.burst_seconds = 0.05;
    }
    writer_sys = LsvdSystem::Create(&world, writer_config);
    Precondition(&world, writer_sys.disk.get());
  }

  // Both tenants run concurrently against one deadline.
  const Nanos deadline = world.sim.now() + FromSeconds(seconds);
  FioConfig rfio;
  rfio.pattern = FioConfig::Pattern::kRandRead;
  rfio.block_size = 4 * kKiB;
  rfio.volume_size = volume;
  Driver reader(&world.sim, reader_sys.disk.get(), MakeFioGen(rfio),
                /*queue_depth=*/4, deadline, &world.metrics, "reader");

  std::unique_ptr<Driver> writer;
  if (with_writer) {
    FioConfig wfio;
    wfio.pattern = FioConfig::Pattern::kSeqWrite;
    wfio.block_size = 256 * kKiB;
    wfio.volume_size = volume;
    wfio.seed = 2;
    writer = std::make_unique<Driver>(&world.sim, writer_sys.disk.get(),
                                      MakeFioGen(wfio), /*queue_depth=*/16,
                                      deadline, &world.metrics, "writer");
  }

  bool reader_done = false;
  bool writer_done = !with_writer;
  reader.Run([&] { reader_done = true; });
  if (writer != nullptr) {
    writer->Run([&] { writer_done = true; });
  }
  world.sim.Run();
  if (!reader_done || !writer_done) {
    std::fprintf(stderr, "tenant workload stalled\n");
    std::abort();
  }

  ScenarioResult r;
  r.reader_kiops = reader.stats().Iops() / 1e3;
  r.reader_p99_us = world.metrics.Snapshot().Percentile("reader.read_us", 0.99);
  if (writer != nullptr) {
    r.writer_mbps = writer->stats().WriteThroughputBps() / 1e6;
  }
  if (want_json) {
    r.metrics_json = world.metrics.ToJson();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CheckFlags(argc, argv,
             {"smoke", "seconds=N", "volume-gib=N", "writer-cap-mbps=N",
              "json"});
  PerfScope perf(argc, argv, "fig17_multitenant");
  const bool smoke = ArgFlag(argc, argv, "smoke");
  const double seconds = ArgDouble(argc, argv, "seconds", smoke ? 0.05 : 3.0);
  const double vol_gib = ArgDouble(argc, argv, "volume-gib",
                                   smoke ? 0.25 : 4.0);
  const double cap_mbps = ArgDouble(argc, argv, "writer-cap-mbps", 100.0);
  const bool want_json = ArgFlag(argc, argv, "json");

  PrintHeader("fig17_multitenant",
              "extension — noisy neighbor on a multi-volume host, QoS on/off");
  std::printf("reader: 4K randread QD4 (cache-warmed); writer: 256K seqwrite "
              "QD16; %gs per cell, %g GiB volumes; QoS cap %g MB/s\n\n",
              seconds, vol_gib, cap_mbps);

  const auto volume =
      static_cast<uint64_t>(vol_gib * static_cast<double>(kGiB));

  const ScenarioResult solo =
      RunScenario(volume, seconds, /*with_writer=*/false, /*qos_on=*/false,
                  cap_mbps, /*want_json=*/false);
  const ScenarioResult off =
      RunScenario(volume, seconds, /*with_writer=*/true, /*qos_on=*/false,
                  cap_mbps, /*want_json=*/false);
  const ScenarioResult on =
      RunScenario(volume, seconds, /*with_writer=*/true, /*qos_on=*/true,
                  cap_mbps, want_json);

  Table table({"scenario", "writer MB/s", "reader kIOPS", "reader p99 us",
               "p99 vs solo"});
  auto row = [&](const char* name, const ScenarioResult& r) {
    table.AddRow({name,
                  r.writer_mbps > 0 ? Table::Fmt(r.writer_mbps, 1) : "-",
                  Table::Fmt(r.reader_kiops, 1), Table::Fmt(r.reader_p99_us, 0),
                  Table::Fmt(r.reader_p99_us / solo.reader_p99_us, 2)});
  };
  row("reader solo", solo);
  row("qos off", off);
  row("qos on", on);
  table.Print();
  std::printf("\nexpected shape: with QoS the reader's p99 stays within ~2x "
              "of solo while the capped writer gives up throughput; without "
              "QoS the writer degrades the reader further\n");

  if (want_json) {
    std::printf("%s\n", on.metrics_json.c_str());
  }
  return 0;
}
