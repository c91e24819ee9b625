#!/usr/bin/env python3
"""Build and run the ecnd benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark driver and the ecnd libraries from this checkout's
sources (CMake, RelWithDebInfo, observability compiled in) into the
directory named by CARGO_TARGET_DIR, or .bench_build, under the checkout
root. Then runs one workload and prints perfbench_driver's output; the last line
is the JSON result. Build output goes to stderr. Traced runs write their
spans to <build dir>/traces/.

    python3 perfbench/run.py --record-reference

re-records perfbench/reference.json (only when a change is meant to move
the workloads' outputs; say why in the change).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.json"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    d = (d if d.is_absolute() else ROOT / d).resolve()
    if d != ROOT and ROOT not in d.parents:
        d = ROOT / ".bench_build"  # never write outside the checkout
    return d / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return False


def build(out: Path) -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no ecnd sources (src/) in this checkout", file=sys.stderr)
        return False
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DECND_OBS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", str(out), "--target", "perfbench_driver",
                      "-j", jobs], BUILD_TIMEOUT_S)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over the sources perfbench_driver is built from."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def driver_env() -> dict:
    # No ecnd observability knob from the caller's environment may arm hooks
    # in the measured runs; packet and fluid workloads run single-threaded.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ECND_")}
    env["ECND_THREADS"] = "1"
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not args.record_reference and (args.workload is None or args.seconds is None):
        ap.error("--workload and --seconds are required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    out = build_dir()
    if not build(out):
        return 1
    driver = out / "perfbench_driver"
    if args.record_reference:
        cmd = [str(driver), "--record-reference", str(REFERENCE)]
    else:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(REFERENCE), "--trace-dir", str(traces),
               "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=driver_env(), stdout=subprocess.PIPE,
                           timeout=None if args.record_reference else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark run timed out", file=sys.stderr)
        return 1
    if r.returncode != 0:
        print(f"run.py: perfbench_driver exited with {r.returncode}", file=sys.stderr)
        return r.returncode
    sys.stdout.write(r.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
