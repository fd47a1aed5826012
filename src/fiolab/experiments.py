"""Norm-growth experiments: threshold sharpness in both directions.

The machinery measures operator input/output norm ratios along geometric
modulation sweeps f_n(t) = chi(t) exp(2 pi i n t) and fits the growth
exponent on a log-log scale.  Verdicts use a dead band: slopes above 0.1
read as unbounded, absolute slopes at most 0.05 as bounded, anything
between is declared inconclusive rather than guessed.

For the L^p experiments with phase x . phi(eta) the witness corpus per n
holds three members:

* u_n with Fourier transform f_n (a translated bump, constant L^p norm),
* v_n with Fourier transform (f_n o phi) phi' (the warp-matched input that
  the operator maps exactly onto u_n, realizing the duality mechanism), and
* a fixed bump at the origin (flat control).

The measured quantity is the max ratio over the corpus; the literal ratio
||A u_n|| / ||u_n|| alone decays for p > 2 because u_n is already the
concentrated profile, while the warped witness carries the growth.  The
corpus depends on (c, n_sweep, grid) only, and the order m enters as the
factor <x>^m after the oscillatory sum, so the m = 0 operator is applied
once per sweep (_lp_sweep, a two-entry cache) and every (p, m) cell of the
threshold table reuses its images.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .gabor import Window
from .grid import (
    Array,
    GridSpec,
    Signal,
    Generator,
    bump_generator,
    fourier_transform,
    inverse_fourier,
    lp_norm,
)
from .operators import OperatorHandle
from .norms import mod_norm
from .symbols import (
    Diffeo,
    _negated_phase,
    _starred_symbol,
    _transposed_phase,
    make_diffeo,
    symbol_from_name,
    phase_from_name,
)
from .grid import bracket, dual_grid
from .util import GrowthFit, fit_loglog, pmap

DEAD_BAND_LO = 0.05
DEAD_BAND_HI = 0.10

DEFAULT_N_SWEEP = (16, 32, 64, 128, 256)
DEFAULT_LP_SWEEP = (8, 16, 32, 64, 128)


def sharpness_grid() -> GridSpec:
    """Box holding supp chi in (0,1) with a 4x Nyquist margin at n = 256."""
    return GridSpec(1, 2.0, 4096)


def lp_witness_grid() -> GridSpec:
    """Wide box for the L^p threshold runs: witnesses drift to |x| ~ 2n."""
    return GridSpec(1, 320.0, 4096)


def sharpness_window(grid: GridSpec) -> Window:
    """Window wide enough that warped chirps are STFT-resolved over the sweep."""
    return Window.gaussian(grid, width=0.5)


def default_chi() -> Generator:
    return bump_generator(center=0.5, half_width=0.42)


def threshold(p: float, d: int = 1) -> float:
    """-d |1/2 - 1/p|."""
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    return -d * abs(0.5 - inv_p)


def classify_slope(slope: float) -> str:
    if slope > DEAD_BAND_HI:
        return "unbounded"
    if abs(slope) <= DEAD_BAND_LO:
        return "bounded"
    return "inconclusive"


@dataclass
class ThresholdVerdict:
    p: float
    order: tuple[float, float]
    expected: str
    measured_slope: float
    verdict: str
    threshold: float
    rows: tuple[tuple, ...] = ()  # (n, witness, norm_in, norm_out, ratio)


# ---------------------------------------------------------------------------
# Witness families
# ---------------------------------------------------------------------------

def make_fn(n: int, chi: Generator, grid: GridSpec) -> Signal:
    """f_n(t) = chi(t) exp(2 pi i n t), tensorized over the grid's axes for
    d > 1."""
    if n < 0:
        raise ValueError("modulation index must be nonnegative")
    if n > grid.nyquist / 2.0:
        raise ValueError(
            f"modulation n={n} leaves the safe band (Nyquist {grid.nyquist})")
    gen = _tensor_power(chi, grid.dim).modulated([float(n)] * grid.dim)
    return Signal.from_generator(grid, gen)


def _tensor_power(chi: Generator, dim: int) -> Generator:
    """chi(t_1) ... chi(t_dim); chi itself for dim = 1."""
    if dim == 1:
        return chi
    return Generator(lambda *cs: np.prod([np.asarray(chi(c)) for c in cs], axis=0))


def _freq_multiply(f: Signal, mult: Array) -> Signal:
    """F^{-1}(mult * F f), for a multiplier sampled on the frequency grid."""
    fh = fourier_transform(f)
    return inverse_fourier(Signal(fh.grid, fh.samples * mult))


def _apply_columns(op: OperatorHandle, signals: Iterable[Signal]) -> list[Signal]:
    """op applied to signals on op.grid as the columns of a single
    op.apply_columns call, so the exponential tables are built once for all
    of them; outputs in input order.
    """
    cols = np.stack([s.samples.ravel() for s in signals], axis=1)
    return [Signal(op.grid, row) for row in np.ascontiguousarray(op.apply_columns(cols).T)]


def _mod_ratio(out: Signal, inp: Signal, p: float, window: Window) -> float:
    """||out||_{M^p} / ||inp||_{M^p} over every 4th x node."""
    return mod_norm(out, p, window=window, x_stride=4).value / \
        mod_norm(inp, p, window=window, x_stride=4).value


def _mod_ratios(outs: Sequence[Signal], ins: Sequence[Signal], p: float, window: Window,
                jobs: int | None) -> list[float]:
    """_mod_ratio of each (out, in) pair, in order, split over jobs workers."""
    return pmap(lambda pair: _mod_ratio(*pair, p, window), list(zip(outs, ins)), jobs)


def _fit_sweep(ns: Sequence[int], vals: Sequence[float]) -> GrowthFit:
    return fit_loglog([float(n) for n in ns], list(vals))


# ---------------------------------------------------------------------------
# FL^p growth (frequency-side counterexample mechanism)
# ---------------------------------------------------------------------------

def fl_growth_experiment(
    p: float,
    n_sweep: Sequence[int] = DEFAULT_N_SWEEP,
    dif: Optional[Diffeo] = None,
    grid: Optional[GridSpec] = None,
    jobs: int | None = None,
) -> GrowthFit:
    """Growth of ||f_n o phi||_{FL^p}; the warp defeats modulation invariance.

    The composed signal is evaluated through its generator, chi(phi(t))
    exp(2 pi i n phi(t)), tensorized over the grid's d axes, so no
    interpolation error enters the fit.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError("the lower-bound mechanism applies for 1 <= p <= 2")
    dif = dif or make_diffeo()
    grid = grid or sharpness_grid()
    dim = grid.dim
    base = _tensor_power(default_chi(), dim)

    def one(n: int) -> float:
        comp = base.modulated([float(n)] * dim).composed(tuple(dif.phi for _ in range(dim)))
        h = Signal.from_generator(grid, comp)
        return lp_norm(fourier_transform(h), p)

    vals = pmap(one, list(n_sweep), jobs)
    return _fit_sweep(n_sweep, vals)


def multiplier_growth_check(
    m: float,
    p: float,
    n_sweep: Sequence[int] = DEFAULT_N_SWEEP,
    grid: Optional[GridSpec] = None,
    jobs: int | None = None,
) -> GrowthFit:
    """Growth of ||<D>^m f_n||_{M^p}, with the sharpness window and every
    4th x node; the multiplier scales like n^m."""
    chi = default_chi()
    grid = grid or sharpness_grid()
    window = sharpness_window(grid)
    mult = bracket(grid.freq_points()).reshape(grid.shape) ** m

    def one(n: int) -> float:
        h = _freq_multiply(make_fn(n, chi, grid), mult)
        return mod_norm(h, p, window=window, x_stride=4).value

    vals = pmap(one, list(n_sweep), jobs)
    return _fit_sweep(n_sweep, vals)


# ---------------------------------------------------------------------------
# L^p thresholds: phase x.phi(eta), symbol <x>^m G(eta)
# ---------------------------------------------------------------------------

def _lp_witnesses(n: int, chi: Generator, dif: Diffeo, grid: GridSpec):
    """The (name, signal) pairs of sweep point n, plain and warped; all
    spectra live in supp chi subset (0, 1)."""
    eta = grid.freq_axis()
    fn_hat = np.asarray(chi(eta)) * np.exp(2j * np.pi * n * eta)
    gd = dual_grid(grid)
    u = inverse_fourier(Signal(gd, fn_hat))
    warped = np.asarray(chi(dif.phi(eta))) * np.exp(2j * np.pi * n * dif.phi(eta)) \
        * dif.dphi(eta)
    v = inverse_fourier(Signal(gd, warped))
    return [("plain", u), ("warped", v)]


def _origin_bump(chi: Generator, grid: GridSpec) -> Signal:
    """The witness that every sweep point shares: the inverse transform of chi."""
    return inverse_fourier(Signal(dual_grid(grid), np.asarray(chi(grid.freq_axis())) + 0j))


@lru_cache(maxsize=2)
def _lp_sweep(c: float, n_sweep: tuple[int, ...], grid: GridSpec):
    """The L^p sweep's witnesses and their images under A_0 f = integral
    exp(2 pi i x phi(eta)) G f^, where phi = make_diffeo(c): (names, ins,
    outs), the plain and warped witnesses of every n in sweep order and the
    origin bump last.  A_0 is applied once, to all of them as the columns of
    one application; its symbol <x>^0 G has a = 1.0, and a type I
    application multiplies by a(x) last, so A_m f is <x>^m times A_0 f bit
    for bit.  Every (p, m) cell of one (c, n_sweep, grid) shares the entry;
    two entries hold the c = 0.3 sweep and its c = 0 control.  Arrays are
    read-only."""
    chi, dif = default_chi(), make_diffeo(c)
    pairs = [pair for n in n_sweep for pair in _lp_witnesses(n, chi, dif, grid)]
    pairs.append(("origin-bump", _origin_bump(chi, grid)))
    names, ins = zip(*pairs)
    outs = _apply_columns(OperatorHandle("fio_type1", symbol_from_name("x_power_freq_cutoff(0)"),
                                         phase_from_name(f"phase_phix({c})"), grid), ins)
    for s in (*ins, *outs):
        s.samples.flags.writeable = False
    return names, ins, tuple(outs)


def lp_threshold_experiment(
    m: float,
    p: float,
    n_sweep: Sequence[int] = DEFAULT_LP_SWEEP,
    c: float = 0.3,
    grid: Optional[GridSpec] = None,
    jobs: int | None = None,
) -> ThresholdVerdict:
    """L^p boundedness probe of A f = <x>^m integral exp(2 pi i x phi(eta)) G f^.

    The G cutoff is identically 1 on the witnesses' band, so it only guards
    the Nyquist edge.  The plain and warped witnesses of every n and the one
    origin bump, and their images under the m = 0 operator, come from
    _lp_sweep, which applies it once per (c, n_sweep, grid) and shares the
    result across (p, m); each cell multiplies the images by its own <x>^m
    and takes its L^p norms.  The rows (n, witness, norm_in, norm_out, ratio)
    keep the sweep order, and every n's origin-bump row reads the bump's
    norms.  Verdict compares the fitted max-ratio slope with the dead band;
    expected classification comes from m against -d|1/2 - 1/p|.  jobs is
    accepted for a uniform signature and not read: what is left after the
    one application is a multiply and a few L^p sums per witness.
    """
    grid = grid or lp_witness_grid()
    sym = symbol_from_name(f"x_power_freq_cutoff({m})")
    a = sym.separable[0](grid.space_points()).reshape(grid.shape)
    names, ins, outs = _lp_sweep(c, tuple(n_sweep), grid)
    *cells, bump = [(name, lp_norm(w, p), lp_norm(Signal(grid, a * o.samples), p))
                    for name, w, o in zip(names, ins, outs)]
    k = len(cells) // len(n_sweep)
    per_n = [cells[i * k:(i + 1) * k] + [bump] for i in range(len(n_sweep))]
    rows = [(int(n), name, nin, nout, nout / nin)
            for n, named in zip(n_sweep, per_n) for name, nin, nout in named]
    best = [max(nout / nin for _, nin, nout in named) for named in per_n]
    fit = _fit_sweep(n_sweep, best)
    thr = threshold(p, grid.dim)
    expected = "bounded" if m <= thr + 1e-12 else "unbounded"
    return ThresholdVerdict(
        p=p, order=(0.0, m), expected=expected, measured_slope=fit.slope,
        verdict=classify_slope(fit.slope), threshold=thr, rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# M^p sharpness in the frequency order m1 and space order m2
# ---------------------------------------------------------------------------

def _m1_operator_parts(m1: float, c: float):
    phase = phase_from_name(f"phase_xphi({c})")
    sym = symbol_from_name(f"x_cutoff_eta_power({m1})")
    return phase, sym


def sharpness_m1_experiment(
    m1: float,
    p: float,
    n_sweep: Sequence[int] = DEFAULT_N_SWEEP,
    c: float = 0.3,
    grid: Optional[GridSpec] = None,
    jobs: int | None = None,
) -> ThresholdVerdict:
    """Growth of ||A <D>^{-m1} f_n||_{M^p} / ||<D>^{-m1} f_n||_{M^p}, with
    the sharpness window of the grid (sharpness_grid() by default).

    A has phase sum phi(x_i) eta_i and symbol G0(x) <eta>^{m1}; inputs
    pre-compensate the order so the numerator reduces to the warped bump.
    A is applied once, to the inputs of every n as the columns of one kernel
    application; jobs splits the modulation norms over n.  Restricted to
    1 <= p <= 2 (the adjoint covers larger p; see the m2 and L^p
    experiments).
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError("sharpness_m1_experiment covers 1 <= p <= 2")
    chi = default_chi()
    grid = grid or sharpness_grid()
    window = sharpness_window(grid)
    phase, sym = _m1_operator_parts(m1, c)
    mult_up = bracket(grid.freq_points()).reshape(grid.shape) ** (-m1)
    ws = [_freq_multiply(make_fn(n, chi, grid), mult_up) for n in n_sweep]
    op = OperatorHandle("fio_type1", sym, phase, grid)
    ratios = _mod_ratios(_apply_columns(op, ws), ws, p, window, jobs)
    fit = _fit_sweep(n_sweep, ratios)
    thr = threshold(p, grid.dim)
    expected = "bounded" if m1 <= thr + 1e-12 else "unbounded"
    return ThresholdVerdict(
        p=p, order=(m1, 0.0), expected=expected, measured_slope=fit.slope,
        verdict=classify_slope(fit.slope), threshold=thr,
        rows=tuple((int(n), "precompensated", 1.0, r, r)
                   for n, r in zip(n_sweep, ratios)),
    )


def self_dual_grid() -> GridSpec:
    """L equal to the Nyquist band (N = 4 L^2): space and frequency node
    sets coincide, so Fourier conjugation identities are grid-exact."""
    return GridSpec(1, 32.0, 4096)


def m2_conjugation_consistency(
    m2: float,
    p: float,
    c: float = 0.3,
    n_sweep: Sequence[int] = (4, 6, 8, 10),
    jobs: int | None = None,
) -> float:
    """Max relative deviation between the conjugated and direct ratio data.

    On the self-dual grid the type II operator B with phase -tPhi and symbol
    sigma* is assembled through its own quantization path and applied to the
    Fourier transforms of the witnesses; modulation norms use the Fourier-
    invariant unit Gaussian window, so the two ratio curves must coincide.
    Each operator is applied once, to the witnesses of every n as columns;
    jobs splits the modulation norms over n.  Gaussian envelopes replace the
    bump (their spectra fit the narrower self-dual band).
    """
    from .grid import gaussian_generator

    grid = self_dual_grid()
    window = Window.gaussian(grid, width=1.0)
    env = gaussian_generator(width=0.2).translated([0.5])
    phase, sym = _m1_operator_parts(m2, c)
    bphase = _negated_phase(_transposed_phase(phase))
    bsym = _starred_symbol(sym)
    mult_up = bracket(grid.freq_points()).reshape(grid.shape) ** (-m2)
    ws = [_freq_multiply(Signal.from_generator(grid, env.modulated([float(n)])), mult_up)
          for n in n_sweep]
    wfs = [fourier_transform(w) for w in ws]
    direct = _mod_ratios(_apply_columns(OperatorHandle("fio_type1", sym, phase, grid), ws),
                         ws, p, window, jobs)
    B = OperatorHandle("fio_type2", bsym, bphase, dual_grid(grid))
    conj = _mod_ratios(_apply_columns(B, wfs), wfs, p, window, jobs)
    return float(max(abs(rc - rd) / rd for rc, rd in zip(conj, direct)))


def sharpness_m2_experiment(
    m2: float,
    p: float,
    n_sweep: Sequence[int] = DEFAULT_N_SWEEP,
    c: float = 0.3,
    jobs: int | None = None,
) -> tuple[ThresholdVerdict, float]:
    """Space-order sharpness through Fourier conjugation of the m1 operator.

    The conjugated operator B (phase -tPhi, symbol sigma* of order m2 in x,
    compact frequency support) is Fourier-conjugate to the m1 operator, and
    modulation norms are Fourier invariant, so its growth data equals the m1
    data; the equality of the two independently quantized ratio curves is
    certified on a self-dual grid and returned as the second element, while
    the verdict is fitted from the full-sweep data.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError("sharpness_m2_experiment covers 1 <= p <= 2")
    v = sharpness_m1_experiment(m2, p, n_sweep=n_sweep, c=c, jobs=jobs)
    dev = m2_conjugation_consistency(m2, p, c=c, jobs=jobs)
    return replace(v, order=(0.0, m2),
                   rows=tuple((n, "conjugated", a, b, r) for n, _, a, b, r in v.rows)), dev


# ---------------------------------------------------------------------------
# Positive direction of the boundedness theorem
# ---------------------------------------------------------------------------

@dataclass
class BoundednessRow:
    order: tuple[float, float]
    phase_name: str
    slope: float
    flat_ratio: float
    passed: bool


def main_theorem_boundedness_suite(
    p: float,
    orders: Sequence[tuple[float, float]],
    n_sweep: Sequence[int] = (16, 32, 64, 128),
    c: float = 0.3,
    grid: Optional[GridSpec] = None,
    jobs: int | None = None,
) -> list[BoundednessRow]:
    """At-threshold orders must give flat max-ratio sweeps (slope <= 0.05),
    for the warped phase and the linear one (phase_xphi(0)).

    Witnesses per n are the hardest known inputs: f_n and the order-
    compensated <D>^{-m1} f_n.  Each (order, phase) operator is applied once,
    to the witnesses of every n as columns; jobs splits the modulation norms,
    taken with the sharpness window.
    """
    grid = grid or sharpness_grid()
    window = sharpness_window(grid)
    chi = default_chi()
    fns = [make_fn(n, chi, grid) for n in n_sweep]
    rows = []
    for (m1, m2) in orders:
        mult_up = bracket(grid.freq_points()).reshape(grid.shape) ** (-m1)
        ws = [w for fn in fns for w in (fn, _freq_multiply(fn, mult_up))]
        for pname in ("warped", "linear"):
            cc = c if pname == "warped" else 0.0
            phase = phase_from_name(f"phase_xphi({cc})")
            sym = symbol_from_name(f"model_sg({m1},{m2})")
            op = OperatorHandle("fio_type1", sym, phase, grid)
            r = _mod_ratios(_apply_columns(op, ws), ws, p, window, jobs)
            vals = [max(0.0, r[i], r[i + 1]) for i in range(0, len(r), 2)]
            fit = _fit_sweep(n_sweep, vals)
            rows.append(BoundednessRow(
                order=(m1, m2), phase_name=pname, slope=fit.slope,
                flat_ratio=fit.flat_ratio, passed=bool(fit.slope <= DEAD_BAND_LO),
            ))
    return rows
