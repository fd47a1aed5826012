"""Spans around fiolab's layer entry points, recorded from outside the package.

`Tracer.install` replaces each entry point listed in `ENTRY_POINTS` with a
timing wrapper, under every name that a fiolab module binds it to, so both
`experiments.apply_fio1` and `operators.apply_fio1` go through the wrapper.
Nothing under `src/` is edited; `Tracer.uninstall` restores the originals.

Spans live in memory (name, start, end, parent index, attributes) and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1024.0 * 1024.0

# (module, attribute, span name).  The span name is "<layer>.<function>";
# the layers are the fiolab modules, with manifest hashing in "runner".
ENTRY_POINTS = [
    ("fiolab.grid", "fourier_transform", "grid.fourier_transform"),
    ("fiolab.grid", "inverse_fourier", "grid.inverse_fourier"),
    ("fiolab.grid", "lp_norm", "grid.lp_norm"),
    ("fiolab.gabor", "stft", "gabor.stft"),
    ("fiolab.gabor", "frame_bounds", "gabor.frame_bounds"),
    ("fiolab.gabor", "dual_window", "gabor.dual_window"),
    ("fiolab.gabor", "tight_window", "gabor.tight_window"),
    ("fiolab.gabor", "gabor_analysis", "gabor.gabor_analysis"),
    ("fiolab.gabor", "gabor_synthesis", "gabor.gabor_synthesis"),
    ("fiolab.gabor", "frame_operator", "gabor.frame_operator"),
    ("fiolab.norms", "mod_norm", "norms.mod_norm"),
    ("fiolab.operators", "apply_fio1", "operators.apply_fio1"),
    ("fiolab.operators", "gabor_matrix", "operators.gabor_matrix"),
    ("fiolab.operators", "diag_decay_certify", "operators.diag_decay_certify"),
    ("fiolab.operators", "schur_certify", "operators.schur_certify"),
    ("fiolab.operators", "op_norm_estimate", "operators.op_norm_estimate"),
    ("fiolab.experiments", "sharpness_m1_experiment", "experiments.sharpness_m1_experiment"),
    ("fiolab.experiments", "lp_threshold_experiment", "experiments.lp_threshold_experiment"),
    ("fiolab.persist", "write_csv", "persist.write_csv"),
    ("fiolab.persist", "matrix_to_csv", "persist.matrix_to_csv"),
    ("fiolab.persist", "matrix_to_binary", "persist.matrix_to_binary"),
    ("fiolab.runner", "run_experiment", "runner.run_experiment"),
    ("fiolab.manifest", "file_sha256", "runner.file_sha256"),
]

# Spans whose tracemalloc peak is recorded; tracemalloc runs only inside them.
ALLOC_SPANS = {"gabor.stft", "operators.gabor_matrix", "operators.op_norm_estimate"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; single-threaded callers only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._alloc_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._fft = None  # unwrapped fourier_transform, for computed attributes

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "fiolab" or n.startswith("fiolab."))]
        for modname, attr, span_name in ENTRY_POINTS:
            orig = getattr(sys.modules[modname], attr)
            if span_name == "grid.fourier_transform":
                self._fft = orig
            wrapped = self._wrap(orig, span_name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = tracer._before(name, args, kwargs)
            idx = tracer._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(tracer.spans[idx], out)
            return out

        return wrapper

    # -- span bookkeeping -----------------------------------------------
    def _open(self, name: str, attrs: dict) -> int:
        if name in ALLOC_SPANS:
            self._alloc_enter()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, attrs=attrs))
        self._stack.append(idx)
        if name in ALLOC_SPANS:
            self._alloc_stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if self._alloc_stack and self._alloc_stack[-1] == idx:
            self._alloc_exit()

    def _fold_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for j in self._alloc_stack:
            a = self.spans[j].attrs
            a["alloc_peak_b"] = max(a.get("alloc_peak_b", 0), peak)
        tracemalloc.reset_peak()

    def _alloc_enter(self) -> None:
        # nested allocation spans share one tracemalloc trace; the peak is
        # folded into every open span before it is reset for the inner one
        if self._alloc_stack:
            self._fold_peak()
        else:
            tracemalloc.start()

    def _alloc_exit(self) -> None:
        self._fold_peak()
        self._alloc_stack.pop()
        if not self._alloc_stack:
            tracemalloc.stop()

    # -- computed attributes (outside the span's interval) -----------------
    def _before(self, name: str, args, kwargs) -> dict:
        if name == "operators.apply_fio1":
            # active columns by the README rule: |fhat| > 1e-15 max |fhat|
            import numpy as np
            f = args[2] if len(args) > 2 else kwargs["f"]
            a = np.abs(self._fft(f).samples.ravel())
            return {"active": int(np.count_nonzero(a > 1e-15 * a.max())),
                    "size": int(a.size)}
        return {}

    @staticmethod
    def _after(span: Span, out) -> None:
        name = span.name
        if name == "gabor.stft":
            span.attrs["out_b"] = int(out.values.nbytes)
        elif name == "gabor.frame_bounds":
            span.attrs["iterations"] = int(out.iterations)
        elif name == "operators.op_norm_estimate":
            span.attrs["iterations"] = int(out.iterations)
        elif name == "operators.gabor_matrix":
            span.attrs["atoms"] = int(out.num_atoms)
        elif name.startswith("persist."):
            span.attrs["bytes"] = int(os.path.getsize(out))

    # -- output -----------------------------------------------------------
    def dump(self, path, t0: float) -> None:
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, **s.attrs} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a span list
# ---------------------------------------------------------------------------

def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(i)
    return kids


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans in `names` with no ancestor in `names` (no double counting)."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _self_time(spans: list[Span], kids, name: str, minus=lambda child: True) -> float:
    total = 0.0
    for i, s in enumerate(spans):
        if s.name == name:
            total += s.duration - sum(spans[c].duration for c in kids.get(i, ())
                                      if minus(spans[c]))
    return total


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass; see perfbench/README.md."""
    kids = _children(spans)

    def dur(*names):
        return sum(s.duration for s in _outermost(spans, set(names)))

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in spans if s.name == name), default=0)

    fio = [s for s in spans if s.name == "operators.apply_fio1"]
    fio_cols = sum(s.attrs["size"] for s in fio)
    roots = [s for s in spans if s.parent < 0]
    return {
        "grid.fft_calls": count("grid.fourier_transform", "grid.inverse_fourier"),
        "grid.fft_s": dur("grid.fourier_transform", "grid.inverse_fourier"),
        "grid.lp_norm_s": dur("grid.lp_norm"),
        "gabor.stft_calls": count("gabor.stft"),
        "gabor.stft_s": dur("gabor.stft"),
        "gabor.stft_mb": attr_sum("gabor.stft", "out_b") / MB,
        "gabor.stft_alloc_mb": attr_max("gabor.stft", "alloc_peak_b") / MB,
        "gabor.frame_bounds_s": dur("gabor.frame_bounds"),
        "gabor.frame_bounds_iters": attr_sum("gabor.frame_bounds", "iterations"),
        "gabor.dual_window_s": dur("gabor.dual_window"),
        "gabor.tight_window_s": dur("gabor.tight_window"),
        "norms.mod_norm_calls": count("norms.mod_norm"),
        "norms.mod_norm_self_s": _self_time(spans, kids, "norms.mod_norm"),
        "operators.apply_fio1_calls": len(fio),
        "operators.apply_fio1_s": dur("operators.apply_fio1"),
        "operators.active_frac": (sum(s.attrs["active"] for s in fio) / fio_cols
                                  if fio_cols else 0.0),
        "operators.gabor_matrix_s": dur("operators.gabor_matrix"),
        "operators.gabor_matrix_atoms": attr_sum("operators.gabor_matrix", "atoms"),
        "operators.gabor_matrix_alloc_mb":
            attr_max("operators.gabor_matrix", "alloc_peak_b") / MB,
        "operators.certify_s": dur("operators.diag_decay_certify",
                                   "operators.schur_certify"),
        "operators.op_norm_s": dur("operators.op_norm_estimate"),
        "operators.op_norm_iters": attr_sum("operators.op_norm_estimate", "iterations"),
        "operators.op_norm_alloc_mb":
            attr_max("operators.op_norm_estimate", "alloc_peak_b") / MB,
        "experiments.lp_threshold_self_s":
            _self_time(spans, kids, "experiments.lp_threshold_experiment"),
        "experiments.m1_self_s":
            _self_time(spans, kids, "experiments.sharpness_m1_experiment"),
        "persist.matrix_to_binary_s": dur("persist.matrix_to_binary"),
        "persist.matrix_to_csv_s": dur("persist.matrix_to_csv"),
        "persist.bytes_written": sum(s.attrs.get("bytes", 0) for s in
                                     _outermost(spans, {"persist.write_csv",
                                                        "persist.matrix_to_csv",
                                                        "persist.matrix_to_binary"})),
        # run_experiment minus the experiment it runs: manifest, CSV, hashing
        "runner.self_s": _self_time(spans, kids, "runner.run_experiment",
                                    lambda c: c.name.startswith("experiments.")),
        "trace.cover_frac": sum(s.duration for s in roots) / wall if wall > 0 else 0.0,
    }
