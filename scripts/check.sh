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
# quick bench_fig14 and bench_ext_fabric (fat-tree incast, shuffle and PFC
# pause storm) runs at ECND_THREADS=1 and 4, idle and with a run directory.
# Every file in it must be valid and byte-identical across thread counts
# (bar the wall-time profile), the storm lossless, stdout the same armed or
# idle, ecnd-diff clean on the identical pair and divergent (with a
# first-divergence timestamp) on a fault_study seed pair, and the
# -DECND_OBS=OFF tree must build every target, pass its ctest, create no
# directory and print the same stdout. The analyzers are header-only, so
# each harness that includes them compiles their bodies in this tree too.
#
# --report runs the quick figure set plus quickstart with a run directory
# per harness, requires stdout and run directories bit-identical at
# ECND_THREADS=1 vs 4 and stdout untouched by the recorders, compares the
# ECND_THREADS=1 outputs against the committed bench/golden.tsv, and gates
# the manifests against bench/expectations.json via ecnd-report.
#
# --perf compares the working tree against its merge base with main through
# scripts/ab.py: per perfbench workload, 10 interleaved pairs of runs plus
# one traced run per side, all at seed 1, so every run also checks its
# outputs against perfbench/reference.json bit for bit. It fails on a
# regression beyond a BENCHMARK.json bound or on a run that is not correct.
# On main the base is HEAD, so it measures uncommitted edits. The mode takes
# at least 37 minutes: 88 runs of 25 s.
#
# --resume-smoke exercises the crash-resume path end to end on a packet
# sweep (bench_fig14) and a fluid sweep (bench_fig20): run each with
# ECND_JOURNAL, SIGKILL it mid-flight, re-run with --resume, and require
# (a) the journal reported reused cells, (b) the resumed stdout is
# byte-identical to an uninterrupted run and (c) the journal then covers
# the full grid.
#
# Any other argument prints the usage line and exits 2.

set -euo pipefail
cd "$(dirname "$0")/.."

build_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$(nproc)"
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
# parallel sweep engine — run it after touching src/core/parallel.* or
# src/obs/task_store.hpp, or after adding mutable scratch (lookup cursors,
# buffers, memos) to a fluid model or to History: a model or History shared
# by two sweep tasks would race on it.
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
  local diff_bin=build/src/report/ecnd-diff

  # name, detail level, binary: fig14 records metrics, snapshots and the
  # trace of a 12-task sweep; the fabric suite records everything, adding
  # the flight recorder, the profiler and the manifest.
  local runs=("fig14 trace bench/bench_fig14_fct_vs_load"
              "fabric prof bench/bench_ext_fabric")
  local entry name level bin t
  for t in 1 4; do
    echo "-- idle and armed runs, ECND_THREADS=$t"
    for entry in "${runs[@]}"; do
      read -r name level bin <<< "$entry"
      ECND_QUICK=1 ECND_THREADS=$t "build/$bin" > "$tmp/$name.idle$t" 2>/dev/null
      ECND_QUICK=1 ECND_THREADS=$t ECND_RUN_DIR="$tmp/$name$t" \
        ECND_RUN_DETAIL=$level "build/$bin" > "$tmp/$name.armed$t" 2>/dev/null
      cmp "$tmp/$name.idle1" "$tmp/$name.idle$t"
      cmp "$tmp/$name.idle1" "$tmp/$name.armed$t"
    done
  done

  echo "-- run directories byte-identical across thread counts"
  for entry in "${runs[@]}"; do
    read -r name level bin <<< "$entry"
    diff -r -x profile.wall.folded "$tmp/${name}1" "$tmp/${name}4"
  done

  echo "-- JSON validity, postcards, flow lanes, pause causality, lossless storm"
  python3 - "$tmp/fig141" "$tmp/fabric1" <<'EOF'
import json, sys
f, x = sys.argv[1], sys.argv[2]
m = json.load(open(f"{f}/metrics.json"))
assert m["schema"] == "ecnd-metrics-v1", m.get("schema")
assert m["counters"].get("sim.events", 0) > 0, "no sim.events counted"
t = json.load(open(f"{f}/trace.json"))
assert isinstance(t["traceEvents"], list) and t["traceEvents"], "empty trace"
ts = json.load(open(f"{f}/metrics_ts.json"))
assert ts["schema"] == "ecnd-metrics-ts-v1" and ts["tasks"], "no snapshots"
for task in ts["tasks"]:
    # A task's first sample follows its first event: it must count it.
    events = [s for s in task["series"] if s["name"] == "sim.events"]
    assert events and events[0]["cum"][0] >= 1, f"task {task['task']}"
assert "== end summary ==" in open(f"{f}/summary.txt").read(), "no summary"
assert "par.sweep" in open(f"{x}/profile.folded").read(), "no sweep frames"
assert open(f"{x}/profile.wall.folded").read(), "empty wall profile"
p = json.load(open(f"{x}/flight.postcards.json"))
assert p["schema"] == "ecnd-flight-postcards-v1", p.get("schema")
records = sum(len(t["records"]) for t in p["tasks"])
assert records > 0, "no postcards sampled"
hop = next(r for t in p["tasks"] if t["records"] for r in t["records"])
assert hop["port"] and hop["t_out_ps"] >= hop["t_in_ps"], hop
xt = json.load(open(f"{x}/trace.json"))["traceEvents"]
spans = [e for e in xt if e.get("ph") == "X"]
assert spans, "no flow spans in trace.json"
tracks = [(e["pid"], e["tid"]) for e in xt if e["name"] == "thread_name"]
assert len(tracks) == len(set(tracks)), "two thread_name records share a track"
obs = json.load(open(f"{x}/manifest.json"))["observables"]
for variant in ("default", "tight"):
    assert obs[f"pause_depth.{variant}"] >= 1, variant
    assert obs[f"storm_drops.{variant}"] == 0, variant
assert obs["pause_tree_roots.default"] >= 1, "no rooted pause tree"
assert obs["storm_root_flow.default"] > 0, "unattributed storm root"
assert obs["storm_top_offender_pauses.default"] >= 1, "no top offender"
assert any(k.startswith("incast_fct_ms.") for k in obs), "no incast observables"
print(f"   {len(m['counters'])} counters, {len(t['traceEvents'])} trace events, "
      f"{records} postcards, {len(spans)} spans on {len(tracks)} tracks, "
      f"{len(obs)} manifest observables")
EOF

  echo "-- ecnd-diff: identical pair exits 0, perturbed-seed pair diverges"
  "$diff_bin" "$tmp/fig141/metrics_ts.json" "$tmp/fig144/metrics_ts.json" \
    > "$tmp/d_same.md"
  for t in 1 2; do
    ECND_THREADS=2 ECND_RUN_DIR="$tmp/seed$t" \
      build/examples/fault_study 4 0.05 $t > /dev/null 2>&1
  done
  if "$diff_bin" "$tmp/seed1/metrics_ts.json" "$tmp/seed2/metrics_ts.json" \
      > "$tmp/d_diff.md"; then
    echo "ERROR: ecnd-diff reported no drift between different seeds" >&2
    exit 1
  fi
  if ! grep -q 'first divergence' "$tmp/d_diff.md"; then
    echo "ERROR: perturbed-pair diff carries no divergence timestamp" >&2
    exit 1
  fi

  echo "-- compiled out (-DECND_OBS=OFF): every target, ctest, no directory, stdout identical"
  build_suite build-obs-off -DECND_OBS=OFF > /dev/null
  run_tests build-obs-off 4
  mkdir "$tmp/off"
  for entry in "${runs[@]}"; do
    read -r name level bin <<< "$entry"
    ECND_QUICK=1 ECND_RUN_DIR="$tmp/off/$name" ECND_RUN_DETAIL=prof \
      "build-obs-off/$bin" > "$tmp/$name.off" 2>/dev/null
    cmp "$tmp/$name.idle1" "$tmp/$name.off"
  done
  if [[ -n "$(ls -A "$tmp/off")" ]]; then
    echo "ERROR: -DECND_OBS=OFF build wrote: $(ls "$tmp/off")" >&2
    exit 1
  fi

  echo "obs smoke: all checks passed"
}

report() {
  echo "== regression report (quick figure set + ecnd-report) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  # The quick figure set: every manifest-wired harness, sized so the whole
  # set takes tens of seconds. bench/expectations.json is calibrated for
  # exactly these sizes: ECND_QUICK=1 (read by fig14, fig16 and ext_fabric)
  # and fault_study 4 0.05 1.
  local quick_set=(
    "fig02 bench/bench_fig02_dcqcn_validation"
    "fig03 bench/bench_fig03_dcqcn_phase_margin"
    "fig09 bench/bench_fig09_timely_unfairness"
    "fig11 bench/bench_fig11_patched_phase_margin"
    "fig12 bench/bench_fig12_patched_timely"
    "fig14 bench/bench_fig14_fct_vs_load"
    "fig16 bench/bench_fig16_queue_timeseries"
    "fig20 bench/bench_fig20_jitter"
    "ext_fabric bench/bench_ext_fabric"
    "fault_study examples/fault_study 4 0.05 1"
  )
  # quickstart writes no manifest: it joins the runs and the golden table,
  # not the ecnd-report list.
  local runs=("${quick_set[@]}" "quickstart examples/quickstart")
  local entry name cmd t manifests=()
  for t in 1 4; do
    echo "-- quick figure set, ECND_THREADS=$t"
    mkdir -p "$tmp/out$t"
    for entry in "${runs[@]}"; do
      read -r name cmd <<< "$entry"
      ECND_QUICK=1 ECND_THREADS=$t ECND_RUN_DIR="$tmp/run$t/$name" \
        build/$cmd > "$tmp/out$t/$name.csv" 2>/dev/null
    done
  done

  echo "-- stdout and run directories byte-identical across thread counts"
  diff -r "$tmp/out1" "$tmp/out4"
  diff -r "$tmp/run1" "$tmp/run4"

  echo "-- stdout untouched by the recorders (fig02 armed vs idle)"
  build/bench/bench_fig02_dcqcn_validation > "$tmp/fig02_idle.csv" 2>/dev/null
  cmp "$tmp/out1/fig02.csv" "$tmp/fig02_idle.csv"

  # One row per (harness, field): the sha256 of stdout, manifest.json and
  # metrics.json, and the exact work counters metrics.json holds. An intended
  # change copies build/golden.tsv over bench/golden.tsv and says why.
  echo "-- golden outputs: build/golden.tsv against bench/golden.tsv"
  python3 - "$tmp" "${runs[@]%% *}" > build/golden.tsv <<'EOF'
import hashlib, json, os, sys
tmp, names = sys.argv[1], sys.argv[2:]
for name in names:
    run = f"{tmp}/run1/{name}"
    for field, path in (("stdout", f"{tmp}/out1/{name}.csv"),
                        ("manifest.json", f"{run}/manifest.json"),
                        ("metrics.json", f"{run}/metrics.json")):
        if os.path.exists(path):
            digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
            print(f"{name}\t{field}\t{digest}")
    counters = json.load(open(f"{run}/metrics.json"))["counters"]
    for field in ("sim.events", "sim.pkt_tx", "fluid.rk4_steps",
                  "fluid.rhs_evals", "par.tasks"):
        if field in counters:
            print(f"{name}\t{field}\t{counters[field]}")
EOF
  if ! diff -u bench/golden.tsv build/golden.tsv; then
    echo "ERROR: outputs moved against bench/golden.tsv (diff above);" \
      "for an intended change copy build/golden.tsv over it" >&2
    exit 1
  fi

  echo "-- ecnd-report gate (bench/expectations.json)"
  for entry in "${quick_set[@]}"; do
    manifests+=(--manifest "$tmp/run1/${entry%% *}/manifest.json")
  done
  build/src/report/ecnd-report \
    --expectations bench/expectations.json \
    "${manifests[@]}" \
    --out REPORT.md
  echo "report: wrote REPORT.md"
}

perf_gate() {
  echo "== perf gate (scripts/ab.py against the merge base with main) =="
  scripts/ab.py "$(git merge-base HEAD main)"
}

resume_smoke() {
  echo "== crash-resume smoke (bench_fig14 + bench_fig20, ECND_JOURNAL) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  # One packet sweep (12 cells) and one fluid sweep (6 cells).
  local name bench total done_cells pid reused final
  for name in fig14_fct_vs_load fig20_jitter; do
    bench=build/bench/bench_$name
    echo "-- $name: uninterrupted reference run"
    ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/$name.ref_journal" \
      "$bench" > "$tmp/$name.clean" 2>/dev/null
    total="$(grep -c ' done ' "$tmp/$name.ref_journal")"
    echo "   $total cells journaled"

    echo "-- $name: interrupted run (SIGKILL once >=3 cells are journaled)"
    ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/$name.journal" \
      "$bench" > /dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 200); do
      done_cells="$(grep -c ' done ' "$tmp/$name.journal" 2>/dev/null || true)"
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

    echo "-- $name: resumed run"
    ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/$name.journal" \
      "$bench" --resume > "$tmp/$name.resumed" 2> "$tmp/$name.err"
    if ! grep -q '^\[journal\]' "$tmp/$name.err"; then
      echo "ERROR: $name resumed run printed no [journal] summary" >&2
      exit 1
    fi
    reused="$(sed -n 's/^\[journal\].*reused \([0-9]*\) of.*/\1/p' "$tmp/$name.err")"
    echo "   $(grep '^\[journal\]' "$tmp/$name.err")"
    if [[ "${reused:-0}" -lt 1 ]]; then
      echo "ERROR: $name resumed run reused no journaled cells" >&2
      exit 1
    fi

    echo "-- $name: resumed stdout byte-identical to the uninterrupted run"
    cmp "$tmp/$name.clean" "$tmp/$name.resumed"

    echo "-- $name: journal now covers the full grid"
    final="$(grep -c ' done ' "$tmp/$name.journal")"
    if [[ "$final" -ne "$total" ]]; then
      echo "ERROR: $name journal has $final done cells, expected $total" >&2
      exit 1
    fi
  done

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
