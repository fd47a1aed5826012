"""Experiment orchestration: named experiments, CSV outputs, manifests.

Each experiment writes its manifest (status running) before any computation,
emits deterministic CSVs, then finalises the manifest with output hashes; an
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
from .grid import GridSpec, default_grid, random_schwartz_signal
from .manifest import RunManifest, file_sha256, load_manifest
from .norms import WeightSpec, dilation_indices, dilation_exponent_check, \
    gabor_norm_equivalence_check
from .operators import OperatorHandle, compose_leading, diag_decay_certify, \
    gabor_matrix, op_norm_estimate, schur_certify
from .persist import write_csv
from .symbols import phase_from_name, symbol_from_name
from .grid import Signal as _Signal
from .grid import gaussian_generator


@dataclass
class RunResult:
    exit_code: int
    files: list[Path]
    summary: dict


def _maybe_plot(out_dir: Path, name: str, xs, ys, xlabel: str, ylabel: str,
                plot: bool) -> list[Path]:
    if not plot:
        return []
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return []
    fig, ax = plt.subplots(figsize=(5, 3.5))
    ax.loglog(xs, ys, "o-")
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.grid(True, which="both", alpha=0.3)
    path = out_dir / f"{name}.svg"
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)
    return [path]


def _write_verdict(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / f"{name}_verdict.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# Each runner takes (out, plot, jobs, seed) and then, keyword-only, the
# config keys its experiment accepts, each at its default: [grid] as
# `grid`, [lattice] alpha and beta and every [experiment] key by name.

def run_fl_growth(out: Path, plot: bool, jobs: int, seed: int, *, p: float = 1.0,
                  n_sweep: tuple = xp.DEFAULT_N_SWEEP, diffeo_c: float = 0.3,
                  grid: GridSpec = xp.sharpness_grid()) -> RunResult:
    from .norms import fl_norm
    from .symbols import make_diffeo
    fit = xp.fl_growth_experiment(p, n_sweep, dif=make_diffeo(diffeo_c), grid=grid,
                                  jobs=jobs)
    chi = xp.default_chi()
    rows = []
    for (n, v) in fit.sweep:
        nin = fl_norm(xp.make_fn(int(n), chi, grid), p)
        rows.append([int(n), nin, v, v / nin])
    files = [write_csv(out / "fl_growth.csv", ["n", "norm_in", "norm_out", "ratio"], rows)]
    files += _maybe_plot(out, "fl_growth", [n for n, _ in fit.sweep],
                         [v for _, v in fit.sweep], "n", "FL^p norm", plot)
    payload = {"slope": fit.slope, "r_squared": fit.r_squared, "p": p, "c": diffeo_c}
    files.append(_write_verdict(out, "fl_growth", payload))
    return RunResult(exit_code=0, files=files, summary=payload)


def run_multiplier_growth(out, plot, jobs, seed, *, m: float = 1.0, p: float = 1.0,
                          n_sweep: tuple = xp.DEFAULT_N_SWEEP,
                          grid: GridSpec = xp.sharpness_grid()) -> RunResult:
    from .norms import mod_norm
    fit = xp.multiplier_growth_check(m, p, n_sweep, grid=grid, jobs=jobs)
    window = xp.sharpness_window(grid)
    chi = xp.default_chi()
    rows = []
    for (n, v) in fit.sweep:
        nin = mod_norm(xp.make_fn(int(n), chi, grid), p, window=window,
                       x_stride=4).value
        rows.append([int(n), nin, v, v / nin])
    files = [write_csv(out / "multiplier_growth.csv",
                       ["n", "norm_in", "norm_out", "ratio"], rows)]
    payload = {"slope": fit.slope, "r_squared": fit.r_squared, "m": m, "p": p}
    files.append(_write_verdict(out, "multiplier_growth", payload))
    files += _maybe_plot(out, "multiplier_growth", [n for n, _ in fit.sweep],
                         [v for _, v in fit.sweep], "n", "M^p norm", plot)
    return RunResult(0, files, payload)


def run_dilation_exponents(out, plot, jobs, seed, *, p: float = 2.0,
                           lam_sweep: tuple = (1.0, 2 ** 0.5, 2.0, 2 ** 1.5, 4.0,
                                               2 ** 2.5, 8.0),
                           grid: GridSpec = GridSpec(1, 20.0, 2048)) -> RunResult:
    f = _Signal.from_generator(grid, gaussian_generator())
    up = dilation_exponent_check(f, p, lam_sweep, x_stride=2)
    down = dilation_exponent_check(f, p, [1.0 / v for v in lam_sweep], x_stride=2)
    mu1, mu2 = dilation_indices(p)
    rows = [[float(l), v] for (l, v) in up.sweep] + \
           [[float(l), v] for (l, v) in down.sweep]
    files = [write_csv(out / "dilation.csv", ["lam", "mod_norm"], rows)]
    payload = {
        "p": p, "slope_up": up.slope, "slope_down": down.slope,
        "d_mu1": grid.dim * mu1, "d_mu2": grid.dim * mu2,
        "bound_up_ok": bool(up.slope <= grid.dim * mu1 + 0.1),
        "bound_down_ok": bool(abs(down.slope) <= -grid.dim * mu2 + 0.1),
    }
    files.append(_write_verdict(out, "dilation", payload))
    ok = payload["bound_up_ok"] and payload["bound_down_ok"]
    return RunResult(0 if ok else 2, files, payload)


def run_lp_threshold(out, plot, jobs, seed, *, p: float = 4.0, m: float = 0.0,
                     n_sweep: tuple = xp.DEFAULT_LP_SWEEP,
                     diffeo_c: float = 0.3) -> RunResult:
    v = xp.lp_threshold_experiment(m, p, n_sweep, c=diffeo_c, jobs=jobs)
    files = [write_csv(out / "lp_threshold.csv",
                       ["n", "witness", "norm_in", "norm_out", "ratio"], v.rows)]
    payload = {
        "p": p, "m": m, "threshold": v.threshold, "expected": v.expected,
        "verdict": v.verdict, "slope": v.measured_slope,
    }
    files.append(_write_verdict(out, "lp_threshold", payload))
    files += _maybe_plot(out, "lp_threshold", list(n_sweep),
                         [max(r for (n2, _, _, _, r) in v.rows if n2 == n) for n in n_sweep],
                         "n", "max ratio", plot)
    code = 0 if v.verdict != "inconclusive" else 3
    return RunResult(code, files, payload)


def run_m1_sharpness(out, plot, jobs, seed, *, p: float = 1.0, m1: float = -0.25,
                     n_sweep: tuple = xp.DEFAULT_N_SWEEP,
                     diffeo_c: float = 0.3) -> RunResult:
    res = xp.sharpness_m1_experiment(m1, p, n_sweep, c=diffeo_c, jobs=jobs)
    v = res.verdict
    files = [write_csv(out / "m1_sharpness.csv",
                       ["n", "witness", "norm_in", "norm_out", "ratio"], v.rows)]
    payload = {"p": p, "m1": m1, "threshold": v.threshold, "expected": v.expected,
               "verdict": v.verdict, "slope": v.measured_slope}
    files.append(_write_verdict(out, "m1_sharpness", payload))
    code = 0 if v.verdict != "inconclusive" else 3
    return RunResult(code, files, payload)


def run_m2_sharpness(out, plot, jobs, seed, *, p: float = 1.0, m2: float = -0.25,
                     n_sweep: tuple = xp.DEFAULT_N_SWEEP,
                     diffeo_c: float = 0.3) -> RunResult:
    res, dev = xp.sharpness_m2_experiment(m2, p, n_sweep, c=diffeo_c, jobs=jobs)
    v = res.verdict
    files = [write_csv(out / "m2_sharpness.csv",
                       ["n", "witness", "norm_in", "norm_out", "ratio"], v.rows)]
    payload = {"p": p, "m2": m2, "threshold": v.threshold, "expected": v.expected,
               "verdict": v.verdict, "slope": v.measured_slope,
               "conjugation_deviation": dev}
    files.append(_write_verdict(out, "m2_sharpness", payload))
    code = 0 if v.verdict != "inconclusive" and dev < 1e-6 else (3 if dev < 1e-6 else 2)
    return RunResult(code, files, payload)


def run_boundedness_suite(out, plot, jobs, seed, *, p: float = 1.0,
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
    files = [write_csv(out / "boundedness.csv",
                       ["m1", "m2", "phase", "slope", "flat_ratio", "passed"],
                       rows_out)]
    payload = {"p": p, "all_passed": ok}
    files.append(_write_verdict(out, "boundedness", payload))
    return RunResult(0 if ok else 2, files, payload)


def run_composition_residual(out, plot, jobs, seed, *, js: tuple = (1, 2, 3, 4),
                             diffeo_c: float = 0.3,
                             grid: GridSpec = GridSpec(1, 6.0, 4096)) -> RunResult:
    p = symbol_from_name("eta_power(1.0)")
    sigma = symbol_from_name("one")
    phase = phase_from_name(f"phase_xphi({diffeo_c})")
    curve = compose_leading(p, phase, sigma, js, grid)
    files = [write_csv(out / "composition.csv", ["j", "residual"], curve)]
    from .operators import residuals_decay
    ok = residuals_decay([cv for cv in curve if cv[0] >= 2], 1.5)
    payload = {"curve": curve, "decay_ok": ok}
    files.append(_write_verdict(out, "composition", payload))
    return RunResult(0 if ok else 2, files, payload)


def run_almost_diag(out, plot, jobs, seed, *, m1: float = -0.5, m2: float = -0.5,
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
    files = [write_csv(out / "almost_diag.csv",
                       ["radius", "constant", "sup_row", "sup_col",
                        "mixed_a", "mixed_b"], rows)]
    stable = max(consts) / min(consts) < 2.0 and max(schur_worst) / min(schur_worst) < 2.0
    payload = {"constants": consts, "schur": schur_worst, "stable": stable}
    files.append(_write_verdict(out, "almost_diag", payload))
    return RunResult(0 if stable else 2, files, payload)


def run_l2_stability(out, plot, jobs, seed, *, diffeo_c: float = 0.3) -> RunResult:
    phase = phase_from_name(f"phase_xphi({diffeo_c})")
    sym = symbol_from_name("one")
    vals = []
    for n in (2048, 4096):
        grid = GridSpec(1, 16.0, n)
        op = OperatorHandle("fio_type1", sym, phase, grid)
        vals.append(op_norm_estimate(op).value)
    rel = abs(vals[1] - vals[0]) / vals[0]
    files = [write_csv(out / "l2_stability.csv", ["N", "l2_norm"],
                       [[2048, vals[0]], [4096, vals[1]]])]
    payload = {"norms": vals, "rel_change": rel, "stable": bool(rel < 0.05)}
    files.append(_write_verdict(out, "l2_stability", payload))
    return RunResult(0 if rel < 0.05 else 2, files, payload)


def run_norm_equivalence(out, plot, jobs, seed, *, p: float = 1.0,
                         q: Optional[float] = None, s1: float = 0.0, s2: float = 0.0,
                         alpha: float = 0.5, beta: float = 0.5,
                         grid: GridSpec = default_grid(1)) -> RunResult:
    q = p if q is None else q
    rng = np.random.default_rng(seed)
    corpus = [random_schwartz_signal(grid, rng) for _ in range(8)]
    g = Window.gaussian(grid)
    lat = GaborLattice.for_grid(grid, alpha, beta, window=g)
    rep = gabor_norm_equivalence_check(corpus, p, q, WeightSpec(s1, s2), g, lat)
    files = [write_csv(out / "norm_equivalence.csv", ["signal", "ratio"],
                       [[i, r] for i, r in enumerate(rep.ratios)])]
    payload = {"lo": rep.lo, "hi": rep.hi, "spread": rep.spread,
               "passed": bool(rep.spread < 10.0)}
    files.append(_write_verdict(out, "norm_equivalence", payload))
    return RunResult(0 if payload["passed"] else 2, files, payload)


EXPERIMENTS: dict[str, Callable] = {
    "fl_growth": run_fl_growth,
    "multiplier_growth": run_multiplier_growth,
    "dilation_exponents": run_dilation_exponents,
    "lp_threshold": run_lp_threshold,
    "m1_sharpness": run_m1_sharpness,
    "m2_sharpness": run_m2_sharpness,
    "boundedness_suite": run_boundedness_suite,
    "composition_residual": run_composition_residual,
    "almost_diag": run_almost_diag,
    "l2_stability": run_l2_stability,
    "norm_equivalence": run_norm_equivalence,
}


def _runner_defaults(name: str) -> dict:
    """The config keys experiment `name` accepts, each with its default:
    the keyword-only parameters of its runner."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)}")
    params = inspect.signature(EXPERIMENTS[name]).parameters.values()
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
    runner's defaults).  A key the runner does not take raises ConfigError
    before anything is written; the manifest records the resolved config,
    every key the runner takes with the value that ran."""
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
    try:
        res = EXPERIMENTS[name](out, plot, jobs, seed, **cfg.params())
    except Exception as exc:
        man.fail(man_path, exc)
        raise
    man.finalize(man_path, [p for p in res.files if p.suffix == ".csv"])
    res.files.append(man_path)
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
