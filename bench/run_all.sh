#!/usr/bin/env bash
# Smoke-runs every bench binary with tiny parameters and validates that the
# --json metrics dump (where supported) parses. Wired into ctest as
# `bench_smoke`; also usable standalone:
#
#   bench/run_all.sh [--perf] [--jobs=N] [path/to/build/bench]
#
# Tiny parameters keep the whole sweep under about a minute — this checks
# that every figure/table binary still runs end to end and that the metrics
# JSON stays machine-readable; it does NOT produce paper-quality numbers.
#
# With --perf, every bench additionally runs under the wall-clock perf
# harness (docs/PERF.md): each binary writes BENCH_<name>.json into
# bench/results/ (override with BENCH_RESULTS_DIR) — a tracked directory, so
# perf snapshots can be committed rather than stranded in the build tree —
# and a summary table (events/sec, simulated-IOs/sec, wall seconds per bench
# plus totals) is printed at the end.
#
# With --jobs=N, up to N benches run concurrently (multi-process perf
# sweep). Results print in submission order once all jobs
# finish, any child failure makes the script exit non-zero, and perf-mode
# JSON lands in a private per-job directory first and is published into the
# results dir with an atomic same-filesystem rename — concurrent jobs can
# never leave a torn BENCH_*.json behind. Note that perf numbers taken with
# N > 1 share the machine; treat them as smoke coverage, not measurements.
set -u

PERF=0
JOBS=1
while :; do
  case "${1:-}" in
    --perf)
      PERF=1
      shift
      ;;
    --jobs=*)
      JOBS="${1#--jobs=}"
      case "$JOBS" in
        ''|*[!0-9]*) echo "bad --jobs value: $JOBS" >&2; exit 1 ;;
      esac
      [ "$JOBS" -ge 1 ] || JOBS=1
      shift
      ;;
    *)
      break
      ;;
  esac
done

BENCH_DIR="${1:-$(dirname "$0")/../build/bench}"
if [ ! -d "$BENCH_DIR" ]; then
  echo "bench dir not found: $BENCH_DIR" >&2
  exit 1
fi
# PerfScope writes BENCH_<name>.json into the bench's working directory, so
# pin that to the results dir (and make BENCH_DIR absolute first, since the
# benches no longer run from this script's CWD).
BENCH_DIR="$(cd "$BENCH_DIR" && pwd)"
RESULTS_DIR="${BENCH_RESULTS_DIR:-$(cd "$(dirname "$0")" && pwd)/results}"
if [ "$PERF" = 1 ]; then
  mkdir -p "$RESULTS_DIR"
fi

PYTHON="$(command -v python3 || true)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
failures=0

# validate_json FILE NAME: the last line must be a JSON object containing the
# write-ack latency histogram produced by the tracing layer.
validate_json() {
  local out="$1" name="$2"
  local line
  line="$(grep '^{.*}$' "$out" | tail -1)"
  if [ -z "$line" ]; then
    echo "  FAIL: $name produced no JSON line" >&2
    return 1
  fi
  if [ -n "$PYTHON" ]; then
    if ! printf '%s\n' "$line" | "$PYTHON" -c '
import json, sys
d = json.load(sys.stdin)
ack = [k for k in d if k.endswith("write.ack_us")]
assert ack, "no write-ack histogram in dump"
for k in ack:
    assert "p50" in d[k] and "p99" in d[k], k + " missing percentiles"
'; then
      echo "  FAIL: $name JSON did not validate" >&2
      return 1
    fi
  fi
  return 0
}

# run_one NAME [ARGS...]: execute one bench; record its exit in
# $TMP/NAME.status and its output in $TMP/NAME.out. Safe to run from a
# background job: everything it touches is private to NAME.
run_one() {
  local name="$1"
  shift
  local bin="$BENCH_DIR/$name"
  local out="$TMP/$name.out"
  if [ ! -x "$bin" ]; then
    echo "missing" > "$TMP/$name.status"
    return
  fi
  local workdir="."
  if [ "$PERF" = 1 ]; then
    set -- "$@" --perf
    workdir="$RESULTS_DIR"
    if [ "$JOBS" -gt 1 ]; then
      # Private staging dir per job: PerfScope writes BENCH_<name>.json into
      # its CWD, and publishing via same-filesystem rename below keeps
      # concurrent writers from ever exposing a torn file.
      workdir="$RESULTS_DIR/.job-$name"
      mkdir -p "$workdir"
    fi
  fi
  local rc=0
  (cd "$workdir" && "$bin" "$@") >"$out" 2>&1 || rc=$?
  if [ "$PERF" = 1 ] && [ "$JOBS" -gt 1 ]; then
    local f
    for f in "$workdir"/BENCH_*.json; do
      [ -e "$f" ] && mv -f "$f" "$RESULTS_DIR/$(basename "$f")"
    done
    rmdir "$workdir" 2>/dev/null || true
  fi
  echo "$rc" > "$TMP/$name.status"
}

# report NAME: print the pass/fail line for a finished bench (validating the
# JSON dump when --json was among its arguments) and count failures. Runs in
# the main shell, in submission order.
report() {
  local name="$1"
  local out="$TMP/$name.out"
  local args=""
  [ -f "$TMP/$name.args" ] && args="$(cat "$TMP/$name.args")"
  local status
  status="$(cat "$TMP/$name.status" 2>/dev/null || echo 999)"
  if [ "$status" = "missing" ]; then
    echo "FAIL $name (binary missing)"
    failures=$((failures + 1))
    return
  fi
  if [ "$status" != 0 ]; then
    echo "FAIL $name (exit $status)"
    sed 's/^/    /' "$out" | tail -5
    failures=$((failures + 1))
    return
  fi
  case " $args " in
    *" --json "*)
      if ! validate_json "$out" "$name"; then
        failures=$((failures + 1))
        return
      fi
      ;;
  esac
  echo "ok   $name $args"
}

JOB_NAMES=""

# run NAME [ARGS...]: run one bench — immediately (jobs=1, incremental
# output) or as a throttled background job reported in order at the end.
run() {
  local name="$1"
  shift
  JOB_NAMES="$JOB_NAMES $name"
  echo "$*" > "$TMP/$name.args"
  if [ "$JOBS" -gt 1 ]; then
    while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do
      wait -n || true
    done
    run_one "$name" "$@" &
  else
    run_one "$name" "$@"
    report "$name"
  fi
}

run fig06_randwrite --seconds=0.05 --volume-gib=0.25 --json
run fig06b_seq_largecache --seconds=0.05 --volume-gib=0.25
run fig07_randread --seconds=0.05 --volume-gib=0.25 --json
run fig08_filebench --seconds=0.2 --volume-gib=0.5
run fig09_smallcache_randwrite --seconds=0.2 --volume-gib=0.5 --json
run fig10_smallcache_seqwrite --seconds=0.2 --volume-gib=0.5 --json
run fig11_writeback --burst-gib=0.05 --volume-gib=0.5
run fig12_backend_load --seconds=0.1 --volume-gib=0.25 --max-disks=2
run fig13_amplification --seconds=0.1 --volume-gib=0.25
run fig14_write_sizes --seconds=0.1 --volume-gib=0.25
run fig15_gc_timeline --seconds=1 --volume-gib=0.25
run fig16_replication --seconds=2 --volume-gib=0.25
run fig17_multitenant --smoke --json
run fig18_scaleout --smoke --json
run fig19_fleet --smoke --json
run fig20_tail --smoke --json
run fig21_waf_frontier --scale=256
run fig22_thin_maps --smoke
run tbl03_filebench_stats --ops=2000
run tbl04_crash --trials=1
run tbl05_gc_traces --scale=256
run tbl06_latency_breakdown --json
run sec49_aws_cost --seconds=0.5
run ablation_design_choices --seconds=0.1 --volume-gib=0.5

if [ "$JOBS" -gt 1 ]; then
  wait
  for name in $JOB_NAMES; do
    report "$name"
  done
fi

if [ "$failures" -gt 0 ]; then
  echo "$failures bench(es) failed" >&2
  exit 1
fi
echo "all benches passed"

if [ "$PERF" = 1 ]; then
  if [ -z "$PYTHON" ]; then
    echo "perf: python3 unavailable, skipping aggregation (BENCH_*.json written)"
    exit 0
  fi
  cd "$RESULTS_DIR"
  "$PYTHON" - <<'EOF'
import glob, json, sys

files = sorted(glob.glob("BENCH_*.json"))
if not files:
    sys.exit("perf: no BENCH_*.json files found")
rows = []
for path in files:
    with open(path) as f:
        rows.append(json.load(f))
print()
print("perf summary (%s, crc32c=%s)" % (rows[0]["build_type"],
                                        rows[0]["crc32c_impl"]))
hdr = "%-28s %10s %14s %14s %12s %10s %10s" % (
    "bench", "wall s", "events/s", "sim IO/s", "sim s", "peak MiB", "map KiB")
print(hdr)
print("-" * len(hdr))
MIB = 1024.0 * 1024.0
for r in rows:
    print("%-28s %10.3f %14s %14s %12.3f %10.1f %10.1f" %
          (r["bench"], r["wall_seconds"],
           "{:,.0f}".format(r["events_per_sec"]),
           "{:,.0f}".format(r["sim_ios_per_sec"]), r["sim_seconds"],
           r.get("peak_rss_bytes", 0) / MIB,
           r.get("map_resident_bytes", 0) / 1024.0))
wall = sum(r["wall_seconds"] for r in rows)
events = sum(r["events"] for r in rows)
ios = sum(r["sim_ios"] for r in rows)
print("-" * len(hdr))
print("%-28s %10.3f %14s %14s %12.3f %10.1f %10s" %
      ("TOTAL", wall, "{:,.0f}".format(events / wall if wall else 0),
       "{:,.0f}".format(ios / wall if wall else 0),
       sum(r["sim_seconds"] for r in rows),
       max(r.get("peak_rss_bytes", 0) for r in rows) / MIB, "max rss"))
EOF
fi
