"""One pass of one workload in this fresh process; run.py starts it.

    python3 perfbench/one_pass.py WORKLOAD SEED MODE T_SPAWN OUT_JSON WORKDIR

MODE is `setup` (set up, then stop), `plain` (timed pass, nothing wrapped,
no tracemalloc) or `traced` (timed pass with spans; they are written to
OUT_JSON's sibling `.spans.json`).  T_SPAWN is run.py's `time.monotonic()`
just before it started this process, so `setup_s` covers interpreter start,
imports and input construction.  ru_maxrss is a per-process high-water
mark, which is why every pass gets its own process.
"""
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def environment(seed: int) -> dict:
    import platform
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "threads_env": {k: os.environ.get(k, "unset") for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "jobs": 1,
        "seed": seed,
        "platform": platform.platform(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()
                   and ln.split()[-1].startswith("/")})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv) -> int:
    name, seed, mode, t_spawn, out_json, workdir = argv
    seed, t_spawn = int(seed), float(t_spawn)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, load_references, reference_checks

    wl = WORKLOADS[name]()
    wl.setup(seed, Path(workdir))
    setup_s = time.monotonic() - t_spawn
    result = {"setup_s": setup_s}
    if mode == "setup":
        result["env"] = environment(seed)
        Path(out_json).write_text(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    refs = load_references().get(name, {})
    checks, error = {}, None
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        wl.run()
        checks = wl.check()
        values = wl.values()
        checks.update(reference_checks(values, refs))
    except Exception:  # the pass is reported as failed, with its traceback
        error = traceback.format_exc()
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()

    if error is None and set(checks) != set(wl.CHECKS):
        error = f"check names {sorted(checks)} differ from {sorted(wl.CHECKS)}"
    if error is not None:
        # an exception fails every check of the pass
        checks = {c: (False, "not reached") for c in wl.CHECKS}
        values = {}
    # harness self-check: perturbed references must be caught
    perturbed = {k: v * (1 + 1e-6) + 1e-6 for k, v in refs.items()}
    selfcheck = all(not ok for ok, _ in reference_checks(values, perturbed).values())

    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(checks),
        "failed": sum(1 for ok, _ in checks.values() if not ok),
        "checks": {k: [bool(ok), detail] for k, (ok, detail) in sorted(checks.items())},
        "values": values,
        "reference_selfcheck": selfcheck,
        "error": error,
    })
    if tracer is not None:
        from spans import layer_metrics
        result["layers"] = layer_metrics(tracer.spans, wall)
        tracer.dump(Path(out_json).with_suffix(".spans.json"), w0)
    Path(out_json).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
