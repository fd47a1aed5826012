#!/usr/bin/env python3
"""fiolab benchmark: four desk-scale workloads, end to end and per layer.

    python3 perfbench/run.py --workload m1_sweep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Each workload pass runs in a fresh
`one_pass.py` process (a closed loop with one caller, jobs=1, BLAS at its
default thread count), one after another, until `--seconds` is used up;
every process started is waited for.  `--trace 0` reports the medians of the
plain passes for the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates plain and traced passes and reports the per-layer metrics, with
the tracing overhead.  The last line of standard output is one JSON object.
Outputs go to `.perfbench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("m1_sweep", "lp_table", "matrix_export", "solvers")
SETUP_SAMPLES = 5      # set-up-only processes per run, besides each pass's own
PASS_LIMIT_S = 170.0   # no pass starts after this much of a run has gone


class HarnessError(RuntimeError):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_state() -> dict:
    """Git revision when there is one, and a digest of the sources either way."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def one_pass(workload: str, seed: int, mode: str, run_dir: Path, index: int,
             timeout: float) -> dict:
    out = run_dir / f"{index:03d}-{mode}.json"
    work = run_dir / f"work-{index:03d}"
    work.mkdir()
    cmd = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), workload, str(seed),
           mode, repr(time.monotonic()), str(out), str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise HarnessError(f"{mode} pass of {workload} exceeded {timeout:.0f} s") from e
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    res = json.loads(out.read_text())
    res["mode"] = mode
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run; the first set-up process warms caches, uncounted."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    t_run = time.monotonic()

    def left() -> float:
        return PASS_LIMIT_S - (time.monotonic() - t_run)

    env = one_pass(workload, seed, "setup", run_dir, 0, left())["env"]
    passes = []
    start = time.monotonic()
    modes = ["plain", "traced"] if trace else ["plain"]
    while True:
        mode = modes[len(passes) % len(modes)]
        t = time.monotonic()
        passes.append(one_pass(workload, seed, mode, run_dir, len(passes) + 1, left()))
        last = time.monotonic() - t
        done = len(passes) >= len(modes)
        if done and time.monotonic() - start + last > seconds:
            break
        if left() < 2 * last:
            break
    setups = [p["setup_s"] for p in passes]
    for i in range(SETUP_SAMPLES):
        setups.append(one_pass(workload, seed, "setup", run_dir, len(passes) + 1 + i,
                               left())["setup_s"])
    return {"env": env, "passes": passes, "setups": setups, "run_dir": run_dir}


def summarize(workload: str, seed: int, trace: bool, m: dict, bench: dict) -> dict:
    plain = [p for p in m["passes"] if p["mode"] == "plain"]
    traced = [p for p in m["passes"] if p["mode"] == "traced"]
    med = statistics.median
    attempted = sum(p["attempted"] for p in m["passes"])
    failed = sum(p["failed"] for p in m["passes"])
    harness_ok = all(p["reference_selfcheck"] for p in m["passes"])
    if trace:
        layers = {k: med([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = med([p["wall_s"] for p in traced]) - \
            med([p["wall_s"] for p in plain])
        # the wrapped spans must account for most of the wall time
        harness_ok = harness_ok and layers["trace.cover_frac"] > 0.5
        values, names = layers, bench["per_layer"]
    else:
        values = {
            "wall_s": med([p["wall_s"] for p in plain]),
            "cpu_s": med([p["cpu_s"] for p in plain]),
            "peak_rss_mb": med([p["peak_rss_mb"] for p in plain]),
            "setup_s": med(m["setups"]),
        }
        names = bench["end_to_end"]
    units = {x["name"]: x["unit"] for x in names}
    if set(values) != set(units):
        raise HarnessError(f"metrics {sorted(set(values) ^ set(units))} are not the "
                           f"{'per_layer' if trace else 'end_to_end'} set of BENCHMARK.json")
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": {**m["env"], **source_state()},
        "passes": len(plain) + len(traced),
        "correct": failed == 0 and harness_ok,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "harness_selfcheck": harness_ok,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "failed_checks": sorted({c for p in m["passes"]
                                 for c, (ok, _) in p["checks"].items() if not ok}),
        "errors": [p["error"] for p in m["passes"] if p["error"]],
        "pass_walls_s": {"plain": [p["wall_s"] for p in plain],
                         "traced": [p["wall_s"] for p in traced]},
    }


def print_table(s: dict) -> None:
    print(f"== {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
          f"passes {s['passes']}  plain walls "
          + ", ".join(f"{w:.3f}" for w in s["pass_walls_s"]["plain"]))
    for k, v in s["metrics"].items():
        print(f"  {k:34s} {v['value']:16.6f} {v['unit']}")
    print(f"  {'failed_frac':34s} {s['failed_frac']:16.6f} ratio "
          f"({s['failed']} of {s['attempted']} checks)")
    for c in s["failed_checks"]:
        print(f"  FAILED CHECK {c}")
    for e in s["errors"]:
        print("  ERROR " + e.strip().replace("\n", "\n        "))
    if not s["harness_selfcheck"]:
        print("  HARNESS SELF-CHECK FAILED (perturbed reference not caught, "
              "or spans cover too little of wall_s)")


def run_one(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    m = measure(workload, seed, seconds, trace)
    s = summarize(workload, seed, trace, m, bench)
    (m["run_dir"] / "result.json").write_text(json.dumps(s, indent=1) + "\n")
    print("env " + json.dumps(s["env"], sort_keys=True))
    print_table(s)
    return s


def main(argv=None) -> int:
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fiolab" / "__init__.py").is_file():
        print(f"fiolab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with open(OUT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one benchmark process at a time
        try:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            res = [run_one(w, args.seed, args.seconds, bool(args.trace), bench)
                   for w in names]
        except HarnessError as e:
            print(f"benchmark harness error: {e}", file=sys.stderr)
            return 1
    if len(res) == 1:
        s = res[0]
        line = {"correct": s["correct"], "attempted": s["attempted"],
                "failed": s["failed"], "metrics": s["metrics"]}
    else:
        line = {"correct": all(s["correct"] for s in res),
                "attempted": sum(s["attempted"] for s in res),
                "failed": sum(s["failed"] for s in res),
                "workloads": {s["workload"]: s["metrics"] for s in res}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
