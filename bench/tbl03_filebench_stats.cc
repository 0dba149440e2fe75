// Tables 2 & 3: Filebench workload parameters and their block-level
// behaviour (mean write size, writes and bytes between commit barriers).
//
// The paper measured these from block traces of Filebench over ext4; our
// workload models emit the same block-level stream, and this bench verifies
// the statistics the models produce against the paper's measurements.
#include "bench/common.h"
#include "src/workload/filebench.h"

using namespace lsvd;
using namespace lsvd::bench;

int main(int argc, char** argv) {
  CheckFlags(argc, argv, {"ops=N"});
  PerfScope perf(argc, argv, "tbl03_filebench_stats");
  const double ops = ArgDouble(argc, argv, "ops", 300000);
  PrintHeader("tbl03_filebench_stats",
              "Tables 2-3 — Filebench parameters and block-level behaviour");

  Table params({"workload", "file count", "mean file size", "IO size",
                "threads", "mean append"});
  Table stats({"workload", "writes/sync", "KiB/sync", "mean write KiB",
               "paper writes/sync", "paper mean write"});

  for (const auto& profile :
       {FilebenchProfile::Fileserver(), FilebenchProfile::Oltp(),
        FilebenchProfile::Varmail()}) {
    params.AddRow({profile.name, Table::FmtCount(profile.file_count),
                   Table::FmtBytes(profile.mean_file_size),
                   profile.io_size ? Table::FmtBytes(profile.io_size) : "-",
                   std::to_string(profile.threads),
                   Table::FmtBytes(profile.io_size)});

    auto gen = MakeFilebenchGen(profile, 32 * kGiB, 11);
    WorkloadOp op;
    uint64_t writes = 0;
    uint64_t write_bytes = 0;
    uint64_t flushes = 0;
    for (uint64_t i = 0; i < static_cast<uint64_t>(ops); i++) {
      gen(&op);
      if (op.kind == WorkloadOp::Kind::kWrite) {
        writes++;
        write_bytes += op.len;
      } else if (op.kind == WorkloadOp::Kind::kFlush) {
        flushes++;
      }
    }
    const double per_sync =
        flushes > 0 ? static_cast<double>(writes) / static_cast<double>(flushes)
                    : static_cast<double>(writes);
    const double bytes_sync =
        flushes > 0
            ? static_cast<double>(write_bytes) / static_cast<double>(flushes)
            : static_cast<double>(write_bytes);
    const double mean_write =
        writes > 0 ? static_cast<double>(write_bytes) /
                         static_cast<double>(writes)
                   : 0;
    std::string paper_sync;
    std::string paper_write;
    if (profile.name == "fileserver") {
      paper_sync = "12865";
      paper_write = "94 KiB";
    } else if (profile.name == "oltp") {
      paper_sync = "42.7";
      paper_write = "4.7 KiB";
    } else {
      paper_sync = "7.6";
      paper_write = "27 KiB";
    }
    stats.AddRow({profile.name, Table::Fmt(per_sync, 1),
                  Table::Fmt(bytes_sync / 1024, 0),
                  Table::Fmt(mean_write / 1024, 1), paper_sync, paper_write});
  }

  std::printf("Table 2 (workload parameters):\n");
  params.Print();
  std::printf("\nTable 3 (block-level behaviour, measured from %g ops):\n",
              ops);
  stats.Print();
  return 0;
}
