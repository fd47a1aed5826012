"""The four benchmark workloads, each a closed loop with one caller.

A workload is a class with
  CHECKS      names of every correctness check a pass makes,
  setup()     builds inputs (imports are done by then); not timed,
  run()       the timed calls into fiolab's public functions, jobs=1,
  check()     {check name: (ok, detail)} for the outputs of run(),
  values()    outputs the seed does not touch, compared with references.json.

fiolab functions are looked up through their modules at call time, so the
tracer's wrappers see the calls made here.  The seed drives the corpus and
the frame-bound start vector in `solvers`; elsewhere it only shuffles the
order of cells, whose inputs are fixed by the paper's sweeps.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from fiolab import experiments as xp
from fiolab import gabor, grid, operators, persist, runner
from fiolab.config import parse_config
from fiolab.manifest import file_sha256
from fiolab.symbols import phase_from_name, symbol_from_name

REFERENCES = Path(__file__).resolve().parent / "references.json"
SLOPE_ABS_TOL = 1e-9
VALUE_REL_TOL = 1e-9


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def reference_checks(values: dict, refs: dict) -> dict:
    """Slopes within 1e-9 absolute, other values within 1e-9 relative."""
    out = {}
    for key, ref in refs.items():
        got = values.get(key, math.nan)
        if key.startswith("slope"):
            ok = abs(got - ref) <= SLOPE_ABS_TOL
        else:
            ok = abs(got - ref) <= VALUE_REL_TOL * abs(ref)
        out[f"ref.{key}"] = (bool(ok), f"{got!r} vs {ref!r}")
    return out


def _order(seed: int, items: list) -> list:
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in perm]


# ---------------------------------------------------------------------------

class M1Sweep:
    """c12: two m1_sharpness runs through the runner (manifest and CSV)."""

    CELLS = (-0.25, -0.5)
    PREDICTED = {-0.25: "unbounded", -0.5: "bounded"}
    CHECKS = [f"m1={m}.{c}" for m in CELLS for c in ("exit", "verdict", "c12", "manifest")] \
        + [f"ref.slope.m1={m}" for m in CELLS]

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.cells = _order(seed, list(self.CELLS))
        self.configs = {m: parse_config(
            "[experiment]\nname = m1_sharpness\np = 1\n"
            f"m1 = {m}\nn_sweep = 16,32,64,128,256\ndiffeo_c = 0.3\n")
            for m in self.CELLS}

    def run(self) -> None:
        self.results = {}
        for m in self.cells:
            out = self.workdir / f"m1_{m}"
            self.results[m] = (runner.run_experiment(
                "m1_sharpness", self.configs[m], out, jobs=1, seed=0), out)

    def check(self) -> dict:
        out = {}
        for m, (res, path) in self.results.items():
            s = res.summary
            slope = s["slope"]
            c12 = slope >= 0.15 if m == -0.25 else abs(slope) <= 0.05
            man = json.loads((path / "m1_sharpness.manifest.json").read_text())
            hashes_ok = man["status"] == "done" and len(man["outputs"]) > 0 and all(
                file_sha256(path / o["path"]) == o["sha256"] for o in man["outputs"])
            out[f"m1={m}.exit"] = (res.exit_code == 0, f"exit {res.exit_code}")
            out[f"m1={m}.verdict"] = (
                s["verdict"] == s["expected"] == self.PREDICTED[m],
                f"{s['verdict']} (expected {s['expected']})")
            out[f"m1={m}.c12"] = (bool(c12), f"slope {slope:+.4f}")
            out[f"m1={m}.manifest"] = (bool(hashes_ok), man["status"])
        return out

    def values(self) -> dict:
        return {f"slope.m1={m}": res.summary["slope"]
                for m, (res, _) in self.results.items()}


class LpTable:
    """c14: the nine-cell L^p threshold verdict table, jobs=1."""

    SWEEP = (8, 16, 32, 64, 128)
    CELLS = [(p, m) for p in (1.0, 2.0, 4.0) for m in (0.0, -0.25, -0.5)]
    # bounded iff m <= -|1/2 - 1/p|
    PREDICTED = {(1.0, 0.0): "unbounded", (1.0, -0.25): "unbounded",
                 (1.0, -0.5): "bounded", (2.0, 0.0): "bounded",
                 (2.0, -0.25): "bounded", (2.0, -0.5): "bounded",
                 (4.0, 0.0): "unbounded", (4.0, -0.25): "bounded",
                 (4.0, -0.5): "bounded"}
    CHECKS = [f"p={p:g},m={m:+.2f}.verdict" for p, m in CELLS] \
        + [f"ref.slope.p={p:g},m={m:+.2f}" for p, m in CELLS]

    def setup(self, seed: int, workdir: Path) -> None:
        self.cells = _order(seed, list(self.CELLS))

    def run(self) -> None:
        self.results = {(p, m): xp.lp_threshold_experiment(m, p, self.SWEEP, jobs=1)
                        for p, m in self.cells}

    def check(self) -> dict:
        out = {}
        for (p, m), v in self.results.items():
            ok = v.verdict == v.expected == self.PREDICTED[(p, m)]
            out[f"p={p:g},m={m:+.2f}.verdict"] = (
                ok, f"{v.verdict} (expected {v.expected}), slope {v.measured_slope:+.4f}")
        return out

    def values(self) -> dict:
        return {f"slope.p={p:g},m={m:+.2f}": v.measured_slope
                for (p, m), v in self.results.items()}


class MatrixExport:
    """The `fiolab matrix` path: assembly, certificates, CSV and binary export."""

    ATOMS = 2401
    RECORD = np.dtype([("kp", "<i4"), ("np", "<i4"), ("k", "<i4"), ("n", "<i4"),
                       ("abs", "<f8"), ("phase", "<f8")])
    CHECKS = ["atoms", "decay.finite", "schur.finite", "csv.round_trip",
              "binary.round_trip", "ref.decay_constant", "ref.schur.sup_row",
              "ref.schur.sup_col", "ref.schur.mixed_a", "ref.schur.mixed_b"]

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        g = grid.GridSpec(1, 16.0, 1024)
        self.window = gabor.Window.gaussian(g)
        self.lattice = gabor.GaborLattice.for_grid(g, 0.5, 0.5, k_radius=24, n_radius=24)
        self.op = operators.OperatorHandle(
            "pseudo_kn", symbol_from_name("model_sg(-0.5,-0.5)"), None, g)
        self.steps = _order(seed, ["decay", "schur", "csv", "binary"])

    def run(self) -> None:
        M = operators.gabor_matrix(self.op, self.window, self.lattice)
        self.M = M
        for step in self.steps:
            if step == "decay":
                self.decay = operators.diag_decay_certify(M, -0.5, -0.5, 1, 1)
            elif step == "schur":
                self.schur = operators.schur_certify(M)
            elif step == "csv":
                self.csv = persist.matrix_to_csv(self.workdir / "matrix.csv", M, min_abs=0.0)
            else:
                self.bin = persist.matrix_to_binary(self.workdir / "matrix.bin", M,
                                                    min_abs=0.0)

    def _expected_records(self):
        """Records in export order (row-major, |entry| > min_abs = 0)."""
        e = self.M.entries
        # the writers store abs() of each entry, which is hypot; np.abs on an
        # array may differ from it in the last bit
        mag = np.hypot(e.real, e.imag)
        i, j = np.nonzero(mag > 0.0)
        return i, j, mag[i, j], np.angle(e[i, j])

    def check(self) -> dict:
        M = self.M
        i, j, a, ph = self._expected_records()
        k, n = M.k_phys[:, 0], M.n_phys[:, 0]
        got = np.loadtxt(self.csv, delimiter=",", skiprows=2, ndmin=2)
        csv_ok = got.shape == (len(a), 6) and all(
            np.array_equal(got[:, c], ref) for c, ref in
            enumerate((k[i], n[i], k[j], n[j], a, ph)))
        rec = np.fromfile(self.bin, dtype=self.RECORD)
        ki = np.rint(k / self.lattice.alpha).astype(np.int32)
        ni = np.rint(n / self.lattice.beta).astype(np.int32)
        bin_ok = rec.shape == a.shape and all(
            np.array_equal(rec[f], ref) for f, ref in
            (("kp", ki[i]), ("np", ni[i]), ("k", ki[j]), ("n", ni[j]),
             ("abs", a), ("phase", ph)))
        sc = self.schur
        return {
            "atoms": (M.num_atoms == self.ATOMS, f"{M.num_atoms} atoms"),
            "decay.finite": (bool(np.isfinite(self.decay.constant)),
                             f"C = {self.decay.constant!r}"),
            "schur.finite": (bool(sc.all_finite), f"worst {sc.worst!r}"),
            "csv.round_trip": (bool(csv_ok), f"{got.shape[0]} of {len(a)} records"),
            "binary.round_trip": (bool(bin_ok), f"{rec.shape[0]} of {len(a)} records"),
        }

    def values(self) -> dict:
        sc = self.schur
        return {"decay_constant": self.decay.constant, "schur.sup_row": sc.sup_row,
                "schur.sup_col": sc.sup_col, "schur.mixed_a": sc.mixed_a,
                "schur.mixed_b": sc.mixed_b}


class Solvers:
    """c03 frame part (power, CG, Chebyshev) and c15 operator norms."""

    CORPUS = 8
    CHECKS = ["frame.is_frame", "c03.dual_reconstruction", "c03.tight_identity",
              "op_norm.converged.N=2048", "op_norm.converged.N=4096", "c15.stability"]

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        g = grid.GridSpec(1, 16.0, 1024)
        self.window = gabor.Window.gaussian(g)
        self.lattice = gabor.GaborLattice.for_grid(g, 0.5, 0.5, window=self.window)
        rng = np.random.default_rng(seed)
        self.corpus = [grid.random_schwartz_signal(g, rng) for _ in range(self.CORPUS)]
        phase = phase_from_name("phase_xphi(0.3)")
        one = symbol_from_name("one")
        self.ops = {n: operators.OperatorHandle("fio_type1", one, phase,
                                                grid.GridSpec(1, 16.0, n))
                    for n in (2048, 4096)}

    def _worst(self, recon) -> float:
        worst = 0.0
        for f in self.corpus:
            r = recon(f)
            err = grid.lp_norm(grid.Signal(f.grid, r.samples - f.samples), 2)
            worst = max(worst, err / grid.lp_norm(f, 2))
        return worst

    def run(self) -> None:
        w, lat = self.window, self.lattice
        self.bounds = gabor.frame_bounds(w, lat, seed=self.seed)
        gamma = gabor.dual_window(w, lat)
        h = gabor.tight_window(w, lat, bounds=self.bounds)
        self.dual_err = self._worst(lambda f: gabor.gabor_synthesis(
            gabor.gabor_analysis(f, w, lat), gamma, lat))
        self.tight_err = self._worst(lambda f: gabor.frame_operator(f, h, lat))
        # the c15 start vector, not the seed's: across seeds 1-10 the N = 4096
        # power iteration took 25 to 68 steps, which swamped every timing
        self.norms = {n: operators.op_norm_estimate(op, 2.0, "power_iter_l2", seed=3)
                      for n, op in self.ops.items()}

    def check(self) -> dict:
        fb = self.bounds
        a, b = self.norms[2048], self.norms[4096]
        rel = abs(b.value - a.value) / a.value
        return {
            "frame.is_frame": (bool(fb.is_frame and fb.lower > 0),
                               f"A {fb.lower:.6g}, B {fb.upper:.6g}"),
            "c03.dual_reconstruction": (self.dual_err < 1e-8, f"{self.dual_err:.3e}"),
            "c03.tight_identity": (self.tight_err < 1e-8, f"{self.tight_err:.3e}"),
            "op_norm.converged.N=2048": (bool(a.converged), f"{a.iterations} iterations"),
            "op_norm.converged.N=4096": (bool(b.converged), f"{b.iterations} iterations"),
            "c15.stability": (rel < 0.05, f"{a.value:.6f} -> {b.value:.6f}, {rel:.3%}"),
        }

    def values(self) -> dict:
        return {}


WORKLOADS = {
    "m1_sweep": M1Sweep,
    "lp_table": LpTable,
    "matrix_export": MatrixExport,
    "solvers": Solvers,
}
