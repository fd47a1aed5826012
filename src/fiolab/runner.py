"""Experiment orchestration: named experiments, CSV outputs, manifests.

Each runner computes and returns a RunResult; run_experiment alone writes
what it holds.  It writes the manifest (status running) before any
computation, then the deterministic <stem>.csv, <stem>_verdict.json and,
with --plot, <stem>.svg, and finalises the manifest with the CSV's hash; an
experiment that raises leaves status failed and its error, and the exception
propagates.
Exit codes: 0 pass, 2 numerical failure (or, for a rerun from a manifest,
outputs whose hashes differ from the stored ones), 3 inconclusive verdict.
"""
from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import experiments as xp
from .config import ConfigError, ExperimentConfig, parse_config
from .gabor import GaborLattice, Window
from .grid import GridSpec, Signal, default_grid, gaussian_generator, \
    random_schwartz_signal
from .manifest import RunManifest, file_sha256, load_manifest
from .norms import WeightSpec, dilation_indices, dilation_exponent_check, fl_norm, \
    gabor_norm_equivalence_check, mod_norm
from .operators import OperatorHandle, compose_leading, diag_decay_certify, \
    gabor_matrix, op_norm_estimate, residuals_decay, schur_certify
from .persist import write_csv
from .symbols import make_diffeo, phase_from_name, symbol_from_name


@dataclass
class RunResult:
    """What a runner found: the CSV's header and rows, the verdict summary,
    the exit code and, for --plot, the curve (xs, ys, xlabel, ylabel)."""
    header: list[str]
    rows: list
    summary: dict
    exit_code: int = 0
    curve: Optional[tuple] = None


def _maybe_plot(out_dir: Path, name: str, xs, ys, xlabel: str, ylabel: str) -> None:
    """<name>.svg, a log-log chart of ys against xs; nothing without matplotlib."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(5, 3.5))
    ax.loglog(xs, ys, "o-")
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.grid(True, which="both", alpha=0.3)
    fig.savefig(out_dir / f"{name}.svg", metadata={"Date": None})
    plt.close(fig)


# Each runner takes (jobs, seed) and then, keyword-only, the config keys
# its experiment accepts, each at its default: [grid] as `grid`, [lattice]
# alpha and beta and every [experiment] key by name.  It writes nothing.

def run_fl_growth(jobs: int, seed: int, *, p: float = 1.0,
                  n_sweep: tuple = xp.DEFAULT_N_SWEEP, diffeo_c: float = 0.3,
                  grid: GridSpec = xp.sharpness_grid()) -> RunResult:
    fit = xp.fl_growth_experiment(p, n_sweep, dif=make_diffeo(diffeo_c), grid=grid,
                                  jobs=jobs)
    chi = xp.default_chi()
    rows = []
    for (n, v) in fit.sweep:
        nin = fl_norm(xp.make_fn(int(n), chi, grid), p)
        rows.append([int(n), nin, v, v / nin])
    return RunResult(["n", "norm_in", "norm_out", "ratio"], rows,
                     {"slope": fit.slope, "r_squared": fit.r_squared, "p": p, "c": diffeo_c},
                     curve=([n for n, _ in fit.sweep], [v for _, v in fit.sweep],
                            "n", "FL^p norm"))


def run_multiplier_growth(jobs, seed, *, m: float = 1.0, p: float = 1.0,
                          n_sweep: tuple = xp.DEFAULT_N_SWEEP,
                          grid: GridSpec = xp.sharpness_grid()) -> RunResult:
    fit = xp.multiplier_growth_check(m, p, n_sweep, grid=grid, jobs=jobs)
    window = xp.sharpness_window(grid)
    chi = xp.default_chi()
    rows = []
    for (n, v) in fit.sweep:
        nin = mod_norm(xp.make_fn(int(n), chi, grid), p, window=window,
                       x_stride=4).value
        rows.append([int(n), nin, v, v / nin])
    return RunResult(["n", "norm_in", "norm_out", "ratio"], rows,
                     {"slope": fit.slope, "r_squared": fit.r_squared, "m": m, "p": p},
                     curve=([n for n, _ in fit.sweep], [v for _, v in fit.sweep],
                            "n", "M^p norm"))


def run_dilation_exponents(jobs, seed, *, p: float = 2.0,
                           lam_sweep: tuple = (1.0, 2 ** 0.5, 2.0, 2 ** 1.5, 4.0,
                                               2 ** 2.5, 8.0),
                           grid: GridSpec = GridSpec(1, 20.0, 2048)) -> RunResult:
    f = Signal.from_generator(grid, gaussian_generator())
    up = dilation_exponent_check(f, p, lam_sweep, x_stride=2)
    down = dilation_exponent_check(f, p, [1.0 / v for v in lam_sweep], x_stride=2)
    mu1, mu2 = dilation_indices(p)
    rows = [[float(l), v] for (l, v) in up.sweep] + \
           [[float(l), v] for (l, v) in down.sweep]
    summary = {
        "p": p, "slope_up": up.slope, "slope_down": down.slope,
        "d_mu1": grid.dim * mu1, "d_mu2": grid.dim * mu2,
        "bound_up_ok": bool(up.slope <= grid.dim * mu1 + 0.1),
        "bound_down_ok": bool(abs(down.slope) <= -grid.dim * mu2 + 0.1),
    }
    ok = summary["bound_up_ok"] and summary["bound_down_ok"]
    return RunResult(["lam", "mod_norm"], rows, summary, exit_code=0 if ok else 2)


def _threshold_result(v: xp.ThresholdVerdict, summary: dict, consistent: bool = True,
                      curve: Optional[tuple] = None) -> RunResult:
    """The RunResult of a threshold verdict: its sweep rows, `summary` with
    the verdict's fields added, and exit code 2 when a consistency check
    failed, else 3 when the verdict is inconclusive, else 0."""
    summary = {**summary, "threshold": v.threshold, "expected": v.expected,
               "verdict": v.verdict, "slope": v.measured_slope}
    code = 2 if not consistent else 3 if v.verdict == "inconclusive" else 0
    return RunResult(["n", "witness", "norm_in", "norm_out", "ratio"], v.rows, summary,
                     exit_code=code, curve=curve)


def run_lp_threshold(jobs, seed, *, p: float = 4.0, m: float = 0.0,
                     n_sweep: tuple = xp.DEFAULT_LP_SWEEP,
                     diffeo_c: float = 0.3) -> RunResult:
    v = xp.lp_threshold_experiment(m, p, n_sweep, c=diffeo_c, jobs=jobs)
    peaks = [max(r for (n2, _, _, _, r) in v.rows if n2 == n) for n in n_sweep]
    return _threshold_result(v, {"p": p, "m": m},
                             curve=(list(n_sweep), peaks, "n", "max ratio"))


def run_m1_sharpness(jobs, seed, *, p: float = 1.0, m1: float = -0.25,
                     n_sweep: tuple = xp.DEFAULT_N_SWEEP,
                     diffeo_c: float = 0.3) -> RunResult:
    v = xp.sharpness_m1_experiment(m1, p, n_sweep, c=diffeo_c, jobs=jobs)
    return _threshold_result(v, {"p": p, "m1": m1})


def run_m2_sharpness(jobs, seed, *, p: float = 1.0, m2: float = -0.25,
                     n_sweep: tuple = xp.DEFAULT_N_SWEEP,
                     diffeo_c: float = 0.3) -> RunResult:
    v, dev = xp.sharpness_m2_experiment(m2, p, n_sweep, c=diffeo_c, jobs=jobs)
    return _threshold_result(v, {"p": p, "m2": m2, "conjugation_deviation": dev},
                             consistent=dev < 1e-6)


def run_boundedness_suite(jobs, seed, *, p: float = 1.0,
                          orders: tuple = ((-0.5, -0.5),),
                          n_sweep: tuple = (16, 32, 64, 128),
                          diffeo_c: float = 0.3) -> RunResult:
    rows_out = []
    ok = True
    for row in xp.main_theorem_boundedness_suite(p, orders, n_sweep, c=diffeo_c,
                                                 jobs=jobs):
        rows_out.append([row.order[0], row.order[1], row.phase_name,
                         row.slope, row.flat_ratio, row.passed])
        ok = ok and row.passed
    return RunResult(["m1", "m2", "phase", "slope", "flat_ratio", "passed"], rows_out,
                     {"p": p, "all_passed": ok}, exit_code=0 if ok else 2)


def run_composition_residual(jobs, seed, *, js: tuple = (1, 2, 3, 4),
                             diffeo_c: float = 0.3,
                             grid: GridSpec = GridSpec(1, 6.0, 4096)) -> RunResult:
    p = symbol_from_name("eta_power(1.0)")
    sigma = symbol_from_name("one")
    phase = phase_from_name(f"phase_xphi({diffeo_c})")
    curve = compose_leading(p, phase, sigma, js, grid)
    ok = residuals_decay([cv for cv in curve if cv[0] >= 2], 1.5)
    return RunResult(["j", "residual"], curve, {"curve": curve, "decay_ok": ok},
                     exit_code=0 if ok else 2)


def run_almost_diag(jobs, seed, *, m1: float = -0.5, m2: float = -0.5,
                    radii: tuple = (16, 24), alpha: float = 0.5, beta: float = 0.5,
                    grid: GridSpec = default_grid(1)) -> RunResult:
    g = Window.gaussian(grid)
    sym = symbol_from_name(f"model_sg({m1},{m2})")
    op = OperatorHandle("pseudo_kn", sym, None, grid)
    rows = []
    consts = []
    schur_worst = []
    for rad in radii:
        lat = GaborLattice.for_grid(grid, alpha, beta, k_radius=rad, n_radius=rad)
        M = gabor_matrix(op, g, lat)
        rep = diag_decay_certify(M, m1, m2, 1, 1)
        sc = schur_certify(M)
        consts.append(rep.constant)
        schur_worst.append(sc.worst)
        rows.append([rad, rep.constant, sc.sup_row, sc.sup_col, sc.mixed_a, sc.mixed_b])
    stable = max(consts) / min(consts) < 2.0 and max(schur_worst) / min(schur_worst) < 2.0
    return RunResult(["radius", "constant", "sup_row", "sup_col", "mixed_a", "mixed_b"],
                     rows, {"constants": consts, "schur": schur_worst, "stable": stable},
                     exit_code=0 if stable else 2)


def run_l2_stability(jobs, seed, *, diffeo_c: float = 0.3) -> RunResult:
    phase = phase_from_name(f"phase_xphi({diffeo_c})")
    sym = symbol_from_name("one")
    vals = []
    for n in (2048, 4096):
        grid = GridSpec(1, 16.0, n)
        op = OperatorHandle("fio_type1", sym, phase, grid)
        vals.append(op_norm_estimate(op).value)
    rel = abs(vals[1] - vals[0]) / vals[0]
    return RunResult(["N", "l2_norm"], [[2048, vals[0]], [4096, vals[1]]],
                     {"norms": vals, "rel_change": rel, "stable": bool(rel < 0.05)},
                     exit_code=0 if rel < 0.05 else 2)


def run_norm_equivalence(jobs, seed, *, p: float = 1.0,
                         q: Optional[float] = None, s1: float = 0.0, s2: float = 0.0,
                         alpha: float = 0.5, beta: float = 0.5,
                         grid: GridSpec = default_grid(1)) -> RunResult:
    rng = np.random.default_rng(seed)
    corpus = [random_schwartz_signal(grid, rng) for _ in range(8)]
    g = Window.gaussian(grid)
    lat = GaborLattice.for_grid(grid, alpha, beta, window=g)
    rep = gabor_norm_equivalence_check(corpus, p, q, WeightSpec(s1, s2), g, lat)
    passed = bool(rep.spread < 10.0)
    return RunResult(["signal", "ratio"], [[i, r] for i, r in enumerate(rep.ratios)],
                     {"lo": rep.lo, "hi": rep.hi, "spread": rep.spread, "passed": passed},
                     exit_code=0 if passed else 2)


# name -> (runner, stem of its output files)
EXPERIMENTS: dict[str, tuple[Callable[..., RunResult], str]] = {
    "fl_growth": (run_fl_growth, "fl_growth"),
    "multiplier_growth": (run_multiplier_growth, "multiplier_growth"),
    "dilation_exponents": (run_dilation_exponents, "dilation"),
    "lp_threshold": (run_lp_threshold, "lp_threshold"),
    "m1_sharpness": (run_m1_sharpness, "m1_sharpness"),
    "m2_sharpness": (run_m2_sharpness, "m2_sharpness"),
    "boundedness_suite": (run_boundedness_suite, "boundedness"),
    "composition_residual": (run_composition_residual, "composition"),
    "almost_diag": (run_almost_diag, "almost_diag"),
    "l2_stability": (run_l2_stability, "l2_stability"),
    "norm_equivalence": (run_norm_equivalence, "norm_equivalence"),
}


def _runner_defaults(name: str) -> dict:
    """The config keys experiment `name` accepts, each with its default:
    the keyword-only parameters of its runner."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)}")
    params = inspect.signature(EXPERIMENTS[name][0]).parameters.values()
    return {a.name: a.default for a in params if a.kind is a.KEYWORD_ONLY}


def run_experiment(
    name: str,
    cfg: Optional[ExperimentConfig],
    out_dir,
    plot: bool = False,
    jobs: int = 1,
    seed: int = 0,
    command: str = "",
) -> RunResult:
    """Run experiment `name` with `cfg` bound to its runner (None: the
    runner's defaults) and write what it returns: <stem>.csv,
    <stem>_verdict.json and, with `plot` and a curve, <stem>.svg.  A key the
    runner does not take raises ConfigError before anything is written; the
    manifest records the resolved config, every key the runner takes with
    the value that ran, and the CSV's hash."""
    if cfg is None:
        cfg = ExperimentConfig()
    cfg = cfg.resolve(name, _runner_defaults(name))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = RunManifest.start(
        command=command or f"experiment {name}", experiment=name,
        config_text=cfg.canonical_text(), config_digest=cfg.digest(),
        seed=seed, jobs=jobs,
    )
    man_path = out / f"{name}.manifest.json"
    man.write(man_path)
    runner, stem = EXPERIMENTS[name]
    try:
        res = runner(jobs, seed, **cfg.params())
        csv = write_csv(out / f"{stem}.csv", res.header, res.rows)
        (out / f"{stem}_verdict.json").write_text(
            json.dumps(res.summary, indent=2, sort_keys=True) + "\n")
        if plot and res.curve is not None:
            _maybe_plot(out, stem, *res.curve)
    except Exception as exc:
        man.fail(man_path, exc)
        raise
    man.finalize(man_path, [csv])
    return res


def rerun_from_manifest(manifest_path, out_dir, plot: bool = False) -> RunResult:
    """Run a manifest's experiment again and compare each output with the
    sha256 the manifest stores; any difference sets exit code 2 and lists
    the files under summary["hash_mismatch"] and in the new manifest's
    hash_mismatch.  A manifest whose config still has an [output] section,
    which the config schema no longer has, raises ConfigError."""
    man = load_manifest(manifest_path)
    if re.search(r"^\[output\]", man.config_text, re.MULTILINE):
        raise ConfigError(
            f"manifest {manifest_path} predates the removal of [output] from the "
            "config schema; its config cannot be rerun as stored (seed, jobs and "
            "plot now come only from --seed, --jobs and --plot)")
    cfg = parse_config(man.config_text)
    res = run_experiment(
        man.experiment, cfg, out_dir, plot=plot, jobs=man.jobs, seed=man.seed,
        command=f"rerun {man.experiment}",
    )
    out = Path(out_dir)
    differ = [o["path"] for o in man.outputs
              if not (out / o["path"]).is_file() or file_sha256(out / o["path"]) != o["sha256"]]
    if differ:
        res.exit_code = 2
        res.summary = {**res.summary, "hash_mismatch": differ}
        new_path = out / f"{man.experiment}.manifest.json"
        rerun = load_manifest(new_path)
        rerun.hash_mismatch = differ
        rerun.write(new_path)
    return res
