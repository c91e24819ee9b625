#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite — first
# plain (the gate CI enforces), then with ECND_SANITIZE=ON so ASan+UBSan sweep
# the same tests for memory and UB bugs the plain run can't see.
#
# The plain suite runs twice, under ECND_THREADS=1 and ECND_THREADS=4: the
# sweep engine promises results are a function of the grid, not of the
# scheduler, and the cheapest way to keep that promise honest is to run every
# test on both the serial and the threaded path.
#
# --obs-smoke exercises the whole observability layer (OBSERVABILITY.md) on
# quick runs at ECND_THREADS=1 and 4: bench_fig14 with metrics, trace,
# metric snapshots and the profiler armed, bench_ext_fabric (fat-tree incast,
# shuffle and PFC pause storm) with the flight recorder and the run manifest
# armed, and both idle. Every export and manifest must be valid and
# byte-identical across thread counts, the pause storm lossless, stdout
# byte-identical armed vs idle, ecnd-diff clean on the identical pair and
# divergent (with a first-divergence timestamp) on a fault_study seed pair,
# and a -DECND_OBS=OFF build must write no export or manifest file and print
# the same stdout.
#
# --report runs the quick figure set with ECND_MANIFEST armed, gates the
# resulting manifests against bench/expectations.json via ecnd-report, and
# checks the manifest contract: bit-identical at ECND_THREADS=1 vs 4 and
# stdout untouched by the writer.
#
# --perf re-measures the engine hot loops (bench_micro_perf's dedicated
# baseline timing loops, including the 10k-flow ns_per_flow_rhs scaling
# guard) and gates them against the committed BENCH_obs.json
# via ecnd-report's perf path with --strict-perf: a regression beyond a
# metric's recorded tolerance fails the script. The measurement goes through
# scripts/bench_baseline.sh, so each --perf run also appends one compact JSON
# line to BENCH_history.jsonl (the trend log `ecnd-diff --bench-history`
# renders). Wall-clock numbers only mean anything on the machine that
# produced the baseline — regenerate it with scripts/bench_baseline.sh when
# moving boxes. It then runs each perfbench workload for 3 s at seed 1 and
# fails unless every result line reports "correct": true — at seed 1 that
# includes every output matching perfbench/reference.json bit for bit, so
# output bit-identity is a mechanical gate.
#
# --resume-smoke exercises the crash-resume path end to end: run a journaled
# sweep (bench_fig14 with ECND_JOURNAL), SIGKILL it mid-flight, re-run with
# --resume, and require (a) the journal reported reused cells and (b) the
# resumed stdout is byte-identical to an uninterrupted run.
#
# Any other argument prints the usage line and exits 2.

set -euo pipefail
cd "$(dirname "$0")/.."

build_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
}

run_tests() {
  local build_dir="$1" threads="$2"
  echo "-- ctest ($build_dir, ECND_THREADS=$threads)"
  ECND_THREADS="$threads" ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

usage="usage: scripts/check.sh [--plain-only|--sanitize-only|--tsan-only|--obs-smoke|--report|--perf|--resume-smoke]"

plain_suite() {
  echo "== plain build + tests (serial and threaded sweep paths) =="
  build_suite build
  run_tests build 1
  run_tests build 4
}

sanitize_suite() {
  echo "== ASan+UBSan build + tests =="
  build_suite build-sanitize -DECND_SANITIZE=ON
  run_tests build-sanitize 4
}

# TSan is opt-in (--tsan-only): it needs its own build tree and roughly 5-15x
# slower tests, but it is the tool that actually sees data races in the
# parallel sweep engine — run it after touching src/core/parallel.*.
tsan_suite() {
  echo "== ThreadSanitizer build + tests =="
  build_suite build-tsan -DECND_TSAN=ON
  run_tests build-tsan 4
}

obs_smoke() {
  echo "== observability smoke (bench_fig14 + bench_ext_fabric, quick) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  local fig14=build/bench/bench_fig14_fct_vs_load
  local fabric=build/bench/bench_ext_fabric
  local diff_bin=build/src/report/ecnd-diff

  # fig14 arms metrics, trace, snapshots and the profiler; the fabric suite
  # arms the flight recorder (1 in 4 flows sampled, so even the quick grids
  # carry postcards) and the manifest.
  local t f
  for t in 1 4; do
    echo "-- idle and armed runs, ECND_THREADS=$t"
    ECND_QUICK=1 ECND_THREADS=$t "$fig14" > "$tmp/fig14_idle$t.csv" 2>/dev/null
    ECND_QUICK=1 ECND_THREADS=$t "$fabric" > "$tmp/fabric_idle$t.txt" 2>/dev/null
    ECND_QUICK=1 ECND_THREADS=$t ECND_METRICS="$tmp/f$t.metrics.json" \
      ECND_TRACE="$tmp/f$t.trace.json" ECND_METRICS_TS="$tmp/f$t" \
      ECND_PROF="$tmp/f$t" "$fig14" > "$tmp/fig14_armed$t.csv" 2>/dev/null
    ECND_QUICK=1 ECND_THREADS=$t ECND_FLIGHT="$tmp/x$t" ECND_FLIGHT_SAMPLE=4 \
      ECND_MANIFEST="$tmp/x$t.manifest.json" \
      "$fabric" > "$tmp/fabric_armed$t.txt" 2>/dev/null
  done

  echo "-- stdout byte-identical across thread counts and armed vs idle"
  for t in 1 4; do
    cmp "$tmp/fig14_idle1.csv" "$tmp/fig14_idle$t.csv"
    cmp "$tmp/fig14_idle1.csv" "$tmp/fig14_armed$t.csv"
    cmp "$tmp/fabric_idle1.txt" "$tmp/fabric_idle$t.txt"
    cmp "$tmp/fabric_idle1.txt" "$tmp/fabric_armed$t.txt"
  done

  echo "-- exports and manifest byte-identical across thread counts"
  for f in metrics.json trace.json metrics_ts.json prof.folded; do
    cmp "$tmp/f1.$f" "$tmp/f4.$f"
  done
  for f in postcards.json timeline.json pausetree.json manifest.json; do
    cmp "$tmp/x1.$f" "$tmp/x4.$f"
  done

  echo "-- JSON validity, sampled postcards, rooted pause tree, lossless storm"
  python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
m = json.load(open(f"{tmp}/f1.metrics.json"))
assert m["schema"] == "ecnd-metrics-v1", m.get("schema")
assert m["counters"].get("sim.events", 0) > 0, "no sim.events counted"
t = json.load(open(f"{tmp}/f1.trace.json"))
assert isinstance(t["traceEvents"], list) and t["traceEvents"], "empty trace"
ts = json.load(open(f"{tmp}/f1.metrics_ts.json"))
assert ts["schema"] == "ecnd-metrics-ts-v1" and ts["tasks"], "no snapshots"
assert open(f"{tmp}/f1.prof.folded").read(), "empty folded profile"
p = json.load(open(f"{tmp}/x1.postcards.json"))
assert p["schema"] == "ecnd-flight-postcards-v1", p.get("schema")
records = sum(len(t["records"]) for t in p["tasks"])
assert records > 0, "no postcards sampled"
hop = next(r for t in p["tasks"] if t["records"] for r in t["records"])
assert hop["port"] and hop["t_out_ps"] >= hop["t_in_ps"], hop
tl = json.load(open(f"{tmp}/x1.timeline.json"))
spans = [e for e in tl["traceEvents"] if e.get("ph") == "X"]
assert spans, "no flow spans in the timeline"
pt = json.load(open(f"{tmp}/x1.pausetree.json"))
assert pt["schema"] == "ecnd-flight-pausetree-v1", pt.get("schema")
stormy = [task for task in pt["tasks"] if task["nodes"]]
assert stormy, "no pause records in the pause tree"
for task in stormy:
    roots = [n for n in task["nodes"] if n["parent"] == 0]
    assert roots and task["roots"] >= len({n["id"] for n in roots}) > 0
    assert all(n["trigger_flow"] > 0 for n in task["nodes"]), "unattributed pause"
    assert task["top_offender"]["flow"] > 0
obs = json.load(open(f"{tmp}/x1.manifest.json"))["observables"]
for variant in ("default", "tight"):
    assert obs[f"pause_depth.{variant}"] >= 1, variant
    assert obs[f"storm_drops.{variant}"] == 0, variant
assert any(k.startswith("incast_fct_ms.") for k in obs), "no incast observables"
print(f"   {len(m['counters'])} counters, {len(t['traceEvents'])} trace events, "
      f"{records} postcards, {len(spans)} spans, "
      f"{sum(len(task['nodes']) for task in stormy)} pause nodes, "
      f"{len(obs)} manifest observables")
EOF

  echo "-- ecnd-diff: identical pair exits 0, perturbed-seed pair diverges"
  "$diff_bin" "$tmp/f1.metrics_ts.json" "$tmp/f4.metrics_ts.json" \
    > "$tmp/d_same.md"
  ECND_THREADS=2 ECND_METRICS_TS="$tmp/p1" \
    build/examples/fault_study 4 0.05 1 > /dev/null 2>&1
  ECND_THREADS=2 ECND_METRICS_TS="$tmp/p2" \
    build/examples/fault_study 4 0.05 2 > /dev/null 2>&1
  if "$diff_bin" "$tmp/p1.metrics_ts.json" "$tmp/p2.metrics_ts.json" \
      > "$tmp/d_diff.md"; then
    echo "ERROR: ecnd-diff reported no drift between different seeds" >&2
    exit 1
  fi
  if ! grep -q 'first divergence' "$tmp/d_diff.md"; then
    echo "ERROR: perturbed-pair diff carries no divergence timestamp" >&2
    exit 1
  fi

  echo "-- compiled out (-DECND_OBS=OFF): no files, stdout identical"
  cmake -B build-obs-off -S . -DECND_OBS=OFF > /dev/null
  cmake --build build-obs-off -j --target bench_fig14_fct_vs_load bench_ext_fabric
  mkdir "$tmp/off"
  ECND_QUICK=1 ECND_METRICS="$tmp/off/f.metrics.json" \
    ECND_TRACE="$tmp/off/f.trace.json" ECND_METRICS_TS="$tmp/off/f" \
    ECND_PROF="$tmp/off/f" ECND_MANIFEST="$tmp/off/f.manifest.json" \
    build-obs-off/bench/bench_fig14_fct_vs_load > "$tmp/fig14_off.csv" 2>/dev/null
  ECND_QUICK=1 ECND_FLIGHT="$tmp/off/x" ECND_FLIGHT_SAMPLE=4 \
    ECND_MANIFEST="$tmp/off/x.manifest.json" \
    build-obs-off/bench/bench_ext_fabric > "$tmp/fabric_off.txt" 2>/dev/null
  if [[ -n "$(ls -A "$tmp/off")" ]]; then
    echo "ERROR: -DECND_OBS=OFF build wrote: $(ls "$tmp/off")" >&2
    exit 1
  fi
  cmp "$tmp/fig14_idle1.csv" "$tmp/fig14_off.csv"
  cmp "$tmp/fabric_idle1.txt" "$tmp/fabric_off.txt"

  echo "obs smoke: all checks passed"
}

report() {
  echo "== regression report (quick figure set + ecnd-report) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  # The quick figure set: every manifest-wired harness, sized so the whole
  # sweep takes tens of seconds. bench/expectations.json is calibrated for
  # exactly these sizes (ECND_QUICK=1 where honored; fault_study 4 0.05 1).
  run_quick_set() {
    local threads="$1" mdir="$2" outdir="$3"
    mkdir -p "$mdir" "$outdir"
    local t="$threads" q="ECND_QUICK=1"
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig02.json" \
      build/bench/bench_fig02_dcqcn_validation > "$outdir/fig02.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig03.json" \
      build/bench/bench_fig03_dcqcn_phase_margin > "$outdir/fig03.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig09.json" \
      build/bench/bench_fig09_timely_unfairness > "$outdir/fig09.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig11.json" \
      build/bench/bench_fig11_patched_phase_margin > "$outdir/fig11.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig12.json" \
      build/bench/bench_fig12_patched_timely > "$outdir/fig12.csv" 2>/dev/null
    env "$q" ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig14.json" \
      build/bench/bench_fig14_fct_vs_load > "$outdir/fig14.csv" 2>/dev/null
    env "$q" ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig16.json" \
      build/bench/bench_fig16_queue_timeseries > "$outdir/fig16.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig20.json" \
      build/bench/bench_fig20_jitter > "$outdir/fig20.csv" 2>/dev/null
    env "$q" ECND_THREADS="$t" ECND_MANIFEST="$mdir/ext_fabric.json" \
      build/bench/bench_ext_fabric > "$outdir/ext_fabric.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fault_study.json" \
      build/examples/fault_study 4 0.05 1 > "$outdir/fault_study.csv" 2>/dev/null
  }

  echo "-- quick figure set, ECND_THREADS=1"
  run_quick_set 1 "$tmp/manifests1" "$tmp/out1"
  echo "-- quick figure set, ECND_THREADS=4"
  run_quick_set 4 "$tmp/manifests4" "$tmp/out4"

  echo "-- manifests bit-identical across thread counts"
  for f in "$tmp"/manifests1/*.json; do
    cmp "$f" "$tmp/manifests4/$(basename "$f")"
  done

  echo "-- stdout untouched by the manifest writer (fig02 armed vs idle)"
  build/bench/bench_fig02_dcqcn_validation > "$tmp/fig02_idle.csv" 2>/dev/null
  cmp "$tmp/out1/fig02.csv" "$tmp/fig02_idle.csv"

  # A fresh perf measurement turns the perf rows into real
  # current-vs-baseline comparisons instead of "no current measurement" warns.
  echo "-- measuring current perf (bench_micro_perf baseline loops)"
  ECND_BENCH_JSON="$tmp/bench_current.json" \
    build/bench/bench_micro_perf --benchmark_filter='^$' > /dev/null 2>&1 || true
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$tmp/bench_current.json"

  echo "-- ecnd-report gate (bench/expectations.json)"
  build/src/report/ecnd-report \
    --expectations bench/expectations.json \
    --manifest-dir "$tmp/manifests1" \
    --bench-baseline BENCH_obs.json \
    --bench-current "$tmp/bench_current.json" \
    --out REPORT.md
  echo "report: wrote REPORT.md"
}

perf_gate() {
  echo "== perf gate (bench_micro_perf vs committed BENCH_obs.json) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  echo "-- measuring current tree (bench_baseline.sh -> BENCH_history.jsonl)"
  scripts/bench_baseline.sh "$tmp/current.json"

  # Perf-only gate: no observable expectations, just the bench comparison.
  printf '{"schema": "ecnd-expectations-v1", "tools": {}}\n' \
    > "$tmp/perf_only_expectations.json"

  echo "-- ecnd-report --strict-perf (tolerance from BENCH_obs.json)"
  build/src/report/ecnd-report \
    --expectations "$tmp/perf_only_expectations.json" \
    --bench-baseline BENCH_obs.json \
    --bench-current "$tmp/current.json" \
    --strict-perf
  echo "perf gate: within baseline tolerance"

  echo "-- perfbench outputs vs perfbench/reference.json (seed 1, 3 s each)"
  for w in fct_dumbbell fabric_shuffle fluid_many_flows paper_sweep; do
    line="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 \
      --trace 0 2> "$tmp/perfbench_$w.err" | tail -n 1)" || true
    if ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
        "$line" 2> /dev/null; then
      echo "ERROR: perfbench $w is not correct: ${line:-no result line}" >&2
      tail -n 20 "$tmp/perfbench_$w.err" >&2
      exit 1
    fi
    echo "   $w: correct"
  done
  echo "perf gate: perfbench outputs bit-identical to the reference"
}

resume_smoke() {
  echo "== crash-resume smoke (bench_fig14 + ECND_JOURNAL) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  bench=build/bench/bench_fig14_fct_vs_load

  echo "-- uninterrupted reference run"
  ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/ref_journal.txt" \
    "$bench" > "$tmp/clean.csv" 2>/dev/null
  total="$(grep -c ' done ' "$tmp/ref_journal.txt")"
  echo "   $total cells journaled"

  echo "-- interrupted run (SIGKILL once >=3 cells are journaled)"
  ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/journal.txt" \
    "$bench" > /dev/null 2>&1 &
  pid=$!
  for _ in $(seq 1 200); do
    done_cells="$(grep -c ' done ' "$tmp/journal.txt" 2>/dev/null || true)"
    if [[ "${done_cells:-0}" -ge 3 ]]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.05
  done
  if kill -9 "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null || true
    echo "   killed after ${done_cells:-0} of $total cells"
  else
    wait "$pid" 2>/dev/null || true
    echo "   note: sweep finished before the kill landed (resume still checked)"
  fi

  echo "-- resumed run"
  ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/journal.txt" \
    "$bench" --resume > "$tmp/resumed.csv" 2> "$tmp/resumed.err"
  if ! grep -q '^\[journal\]' "$tmp/resumed.err"; then
    echo "ERROR: resumed run printed no [journal] summary" >&2
    exit 1
  fi
  reused="$(sed -n 's/^\[journal\].*reused \([0-9]*\) of.*/\1/p' "$tmp/resumed.err")"
  echo "   $(grep '^\[journal\]' "$tmp/resumed.err")"
  if [[ "${reused:-0}" -lt 1 ]]; then
    echo "ERROR: resumed run reused no journaled cells" >&2
    exit 1
  fi

  echo "-- resumed stdout byte-identical to the uninterrupted run"
  cmp "$tmp/clean.csv" "$tmp/resumed.csv"

  echo "-- journal now covers the full grid"
  final="$(grep -c ' done ' "$tmp/journal.txt")"
  if [[ "$final" -ne "$total" ]]; then
    echo "ERROR: journal has $final done cells, expected $total" >&2
    exit 1
  fi

  echo "resume smoke: all checks passed"
}

case "${1:-all}" in
  all) plain_suite; sanitize_suite ;;
  --plain-only) plain_suite ;;
  --sanitize-only) sanitize_suite ;;
  --tsan-only) tsan_suite ;;
  --obs-smoke) obs_smoke ;;
  --report) report ;;
  --perf) perf_gate ;;
  --resume-smoke) resume_smoke ;;
  *) echo "$usage" >&2; exit 2 ;;
esac

echo "check.sh: all requested suites passed"
