"""Command-line front end.

Exit codes: 0 success, 1 validation failure (bad config/arguments),
2 numerical failure (divergence, aliasing, failed stability), 3 verdict
inconclusive.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .config import ConfigError, load_config
from .gabor import (
    GaborLattice,
    NotAFrameError,
    Window,
    dual_window,
    frame_bounds,
    gabor_analysis,
    gabor_synthesis,
    tight_window,
)
from .grid import (
    GridSpec,
    Signal,
    TruncationAliasingWarning,
    bump_generator,
    default_grid,
    gaussian_generator,
)
from .norms import WeightSpec, mod_norm
from .operators import OperatorHandle, gabor_matrix
from .persist import (
    coeffs_to_csv,
    matrix_to_binary,
    matrix_to_csv,
    signal_from_csv,
    signal_to_csv,
    stft_to_csv,
)
from .runner import EXPERIMENTS, rerun_from_manifest, run_experiment
from .symbols import Box, _parse_call, growth_validate, nondeg_validate, \
    phase_from_name, sg_validate, symbol_from_name
from .util import default_jobs


def _parse_grid(spec: str | None) -> GridSpec:
    """The d = 1 grid "N,L", or the default one."""
    if not spec:
        return default_grid()
    n, l = spec.split(",")
    return GridSpec(1, float(l), int(n))


def _load_signal(spec: str, grid: GridSpec) -> Signal:
    """Named generator ('gaussian', 'gaussian(w)', 'bump', ...) or a CSV path."""
    if spec.endswith(".csv"):
        return signal_from_csv(spec, grid)
    name, args = _parse_call(spec)
    if name == "gaussian":
        return Signal.from_generator(grid, gaussian_generator(*(args or [1.0]), dim=grid.dim))
    if name == "bump":
        return Signal.from_generator(grid, bump_generator(*(args or [0.5, 0.42]), dim=grid.dim))
    raise ConfigError(f"unknown input signal {spec!r}")


def _window_from(spec: str, grid: GridSpec) -> Window:
    name = spec.split(":")
    if name[0] == "gauss":
        width = float(name[1]) if len(name) > 1 else 1.0
        return Window.gaussian(grid, width)
    raise ConfigError(f"unknown window {spec!r}")


_COMMON = {
    "grid": {"help": "N,L override (even N, box half width L)"},
    "out": {"default": "out", "help": "output directory"},
    "plot": {"action": "store_true"},
    "jobs": {"type": int, "default": None},
    "seed": {"type": int, "default": None},
}


def _add_common(sp, *flags):
    """The shared flags `flags` (names in _COMMON) that this subcommand reads."""
    for flag in flags:
        sp.add_argument(f"--{flag}", **_COMMON[flag])


def cmd_stft(args) -> int:
    grid = _parse_grid(args.grid)
    f = _load_signal(args.input, grid)
    w = _window_from(args.window, grid)
    path = stft_to_csv(Path(args.out) / "stft.csv", f, w, args.stride)
    print(f"wrote {path}")
    return 0


def cmd_gabor(args) -> int:
    grid = _parse_grid(args.grid)
    g = Window.gaussian(grid)
    lat = GaborLattice.for_grid(grid, args.alpha, args.beta, window=g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.action == "bounds":
        fb = frame_bounds(g, lat)
        print(f"A={fb.lower:.8g} B={fb.upper:.8g} ratio={fb.upper / fb.lower:.4g} "
              f"frame={fb.is_frame}")
        return 0 if fb.is_frame else 2
    if args.action == "dual":
        gamma = dual_window(g, lat)
        signal_to_csv(out / "dual_window.csv", gamma.signal)
        print(f"wrote {out / 'dual_window.csv'}")
        return 0
    if args.action == "tight":
        h = tight_window(g, lat)
        signal_to_csv(out / "tight_window.csv", h.signal)
        print(f"wrote {out / 'tight_window.csv'}")
        return 0
    f = _load_signal(args.input, grid)
    if args.action == "analysis":
        c = gabor_analysis(f, g, lat)
        coeffs_to_csv(out / "coeffs.csv", c)
        print(f"wrote {out / 'coeffs.csv'}")
        return 0
    if args.action == "synthesis":
        c = gabor_analysis(f, g, lat)
        rec = gabor_synthesis(c, g, lat)
        signal_to_csv(out / "synthesis.csv", rec)
        print(f"wrote {out / 'synthesis.csv'}")
        return 0
    raise ConfigError(f"unknown gabor action {args.action}")


def cmd_norm(args) -> int:
    grid = _parse_grid(args.grid)
    f = _load_signal(args.input, grid)
    q = args.q if args.q is not None else args.p
    rep = mod_norm(f, args.p, q, WeightSpec(args.s1, args.s2),
                   x_stride=args.stride)
    print(repr(rep.value))
    return 0


def cmd_apply(args) -> int:
    grid = _parse_grid(args.grid)
    f = _load_signal(args.input, grid)
    sym = symbol_from_name(args.symbol)
    phase = phase_from_name(args.phase) if args.phase else None
    op = OperatorHandle(args.kind, sym, phase, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationAliasingWarning)
        g = op.apply(f)
        aliased = any(issubclass(w.category, TruncationAliasingWarning) for w in caught)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    signal_to_csv(out / "applied.csv", g)
    print(f"wrote {out / 'applied.csv'}")
    if aliased:
        print("aliasing flag raised", file=sys.stderr)
        return 2
    return 0


def cmd_matrix(args) -> int:
    grid = _parse_grid(args.grid)
    sym = symbol_from_name(args.symbol)
    phase = phase_from_name(args.phase) if args.phase else None
    op = OperatorHandle(args.kind, sym, phase, grid)
    g = Window.gaussian(grid)
    lat = GaborLattice.for_grid(grid, args.alpha, args.beta,
                                k_radius=args.radius, n_radius=args.radius)
    M = gabor_matrix(op, g, lat)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix_to_csv(out / "matrix.csv", M, min_abs=args.min_abs)
    matrix_to_binary(out / "matrix.bin", M, min_abs=args.min_abs)
    print(f"wrote {out / 'matrix.csv'} and {out / 'matrix.bin'}")
    return 0


def cmd_experiment(args) -> int:
    if args.from_manifest:
        given = [f"--{f}" for f in ("seed", "jobs") if getattr(args, f) is not None]
        if given:
            raise ConfigError(f"--from-manifest does not accept {' or '.join(given)}: "
                              "the rerun takes seed and jobs from the manifest")
        res = rerun_from_manifest(args.from_manifest, args.out, plot=args.plot)
    else:
        cfg = load_config(args.config) if args.config else None
        res = run_experiment(args.name, cfg, args.out, plot=args.plot,
                             jobs=args.jobs if args.jobs is not None else default_jobs(),
                             seed=args.seed if args.seed is not None else 0,
                             command=" ".join(sys.argv[1:]))
    for k, v in sorted(res.summary.items()):
        print(f"{k} = {v}")
    return res.exit_code


def cmd_validate(args) -> int:
    kind, _, spec = args.target.partition(":")
    if kind == "symbol":
        sym = symbol_from_name(spec)
        rep = sg_validate(sym, box=sym.support_hint or Box.cube(1, 8.0, 8.0))
        print(f"constant={rep.constant:.6g} worst_orders={rep.worst_orders} "
              f"passed={rep.passed}")
        return 0 if rep.passed else 2
    if kind == "phase":
        phase = phase_from_name(spec)
        box = Box.cube(1, 8.0, 8.0)
        nd = nondeg_validate(phase, box)
        gw = growth_validate(phase, box)
        print(f"delta_min={nd.delta_min:.6g} growth_x={gw.min_ratio_x:.4g} "
              f"growth_eta={gw.min_ratio_eta:.4g} "
              f"passed={nd.passed and gw.passed}")
        return 0 if (nd.passed and gw.passed) else 2
    raise ConfigError("validate target must be symbol:<name> or phase:<name>")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fiolab",
                                 description="time-frequency operator laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("stft", help="STFT of a signal, streamed to CSV")
    sp.add_argument("input")
    sp.add_argument("--window", default="gauss:1.0")
    sp.add_argument("--stride", type=int, default=1)
    _add_common(sp, "grid", "out")
    sp.set_defaults(fn=cmd_stft)

    sp = sub.add_parser("gabor", help="Gabor analysis/synthesis/bounds/dual/tight")
    sp.add_argument("action", choices=["analysis", "synthesis", "bounds", "dual", "tight"])
    sp.add_argument("input", nargs="?", default="gaussian")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--beta", type=float, default=0.5)
    _add_common(sp, "grid", "out")
    sp.set_defaults(fn=cmd_gabor)

    sp = sub.add_parser("norm", help="weighted modulation norm")
    sp.add_argument("input")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--s1", type=float, default=0.0)
    sp.add_argument("--s2", type=float, default=0.0)
    sp.add_argument("--stride", type=int, default=1)
    _add_common(sp, "grid")
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("apply", help="apply a quantized operator")
    sp.add_argument("input")
    sp.add_argument("--kind", default="pseudo_kn",
                    choices=["pseudo_kn", "pseudo_weyl", "fio_type1", "fio_type2"])
    sp.add_argument("--symbol", default="one")
    sp.add_argument("--phase", default=None)
    _add_common(sp, "grid", "out")
    sp.set_defaults(fn=cmd_apply)

    sp = sub.add_parser("matrix", help="assemble a Gabor matrix")
    sp.add_argument("--kind", default="pseudo_kn",
                    choices=["pseudo_kn", "fio_type1", "fio_type2"])
    sp.add_argument("--symbol", default="model_sg(-0.5,-0.5)")
    sp.add_argument("--phase", default=None)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--radius", type=int, default=8)
    sp.add_argument("--min-abs", type=float, default=0.0)
    _add_common(sp, "grid", "out")
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("experiment", help="run a named experiment")
    sp.add_argument("name", nargs="?", default=None,
                    help=f"one of {sorted(EXPERIMENTS)}")
    sp.add_argument("--config", default=None)
    sp.add_argument("--from-manifest", default=None)
    _add_common(sp, "out", "plot", "jobs", "seed")
    sp.set_defaults(fn=cmd_experiment)

    sp = sub.add_parser("validate", help="validate symbol:<n> or phase:<n>")
    sp.add_argument("target")
    sp.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "cmd", None) == "experiment" and not args.from_manifest \
            and not args.name:
        ap.error("experiment needs a name or --from-manifest")
    try:
        return args.fn(args)
    except (ConfigError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NotAFrameError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
