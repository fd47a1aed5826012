"""Weighted modulation norms M^{p,q}_{s1,s2}, FL^p norms and sequence norms.

The mixed norm is inner L^p in x, outer L^q in eta:

    ||f||_{M^{p,q}_mu} = ( sum_eta ( sum_x |V_g f|^p mu^p dx )^{q/p} deta )^{1/q}

computed by Riemann sums streamed over blocks of the STFT: each block of x
nodes is reduced into the inner sum over x and dropped, so the whole STFT
is never held.  Gabor-coefficient sequence norms are the fast alternative
and the two are cross-checked by the norm equivalence machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gabor import (
    GaborCoeffs,
    GaborLattice,
    Window,
    default_window,
    gabor_analysis,
    _stft_blocks,
)
from .grid import (
    Signal,
    WeightSpec,
    bracket,
    dilate,
    fourier_transform,
    lp_norm,
)
from .util import GrowthFit, fit_loglog

Array = np.ndarray


@dataclass
class NormReport:
    value: float
    p: float
    q: float


def _inner_root(sums: Array, p: float, d: int, dx_eff: float) -> Array:
    """The inner L^p norms from their sums of p-th powers over x."""
    return (sums * dx_eff ** d) ** (1.0 / p)


def _outer_norm(inner: Array, q: float, d: int, deta: float) -> float:
    """The outer L^q norm over eta of the inner norms."""
    if np.isinf(q):
        return float(inner.max())
    return float((np.sum(inner ** q) * deta ** d) ** (1.0 / q))


def _mixed_norm(vals: Array, w: Array, p: float, q: float, d: int,
                dx_eff: float, deta: float) -> float:
    a = np.abs(vals) * w
    x_axes = tuple(range(d))
    if np.isinf(p):
        inner = a.max(axis=x_axes)
    else:
        inner = _inner_root(np.sum(a ** p, axis=x_axes), p, d, dx_eff)
    return _outer_norm(inner, q, d, deta)


def _row_weights(wx_rows: Sequence[Array], weta_axes: Sequence[Array], rows: slice,
                 out: Array) -> Array:
    """The weights of the STFT rows `rows`, written into out: wx_rows[a]
    holds the x weight of every row along axis a, and weta_axes[a] the eta
    weight shaped to eta axis a.  They are multiplied in the order
    ((wx_0 weta_0) wx_1) weta_1 ... of _weight_array, whose leading 1
    changes no bit, so the values are its values."""
    w = wx_rows[0][rows]
    last = len(weta_axes) - 1
    for ax, we in enumerate(weta_axes):
        if ax:
            w = w * wx_rows[ax][rows]
        w = np.multiply(w, we, out=out if ax == last else None)
    return w


def _weight_array(xs: Array, etas: Array, weight: WeightSpec, d: int) -> Array:
    """<x>^{s2} <eta>^{s1} over axes (x..., eta...), from the per-axis nodes,
    multiplied in the order ((wx_0 weta_0) wx_1) weta_1 ... from a leading
    1."""
    wx = bracket(xs[:, None]) ** weight.s2
    weta = bracket(etas[:, None]) ** weight.s1
    w_arr = np.ones((1,) * (2 * d))
    for ax in range(d):
        for axis, w in ((ax, wx), (d + ax, weta)):
            sh = [1] * (2 * d)
            sh[axis] = len(w)
            w_arr = w_arr * w.reshape(sh)
    return w_arr


def mod_norm(
    f: Signal,
    p: float,
    q: float | None = None,
    weight: WeightSpec = WeightSpec(),
    window: Optional[Window] = None,
    x_stride: int = 1,
) -> NormReport:
    """Modulation norm by Riemann sums streamed over STFT blocks; q defaults
    to p.

    Each block from gabor._stft_blocks (a few x nodes, frequencies in FFT
    order) is scaled by dx^d, weighted, and added row by row into the
    running inner sum over x (a running max for p = inf), with the weight's
    eta factor permuted to FFT order.  |rows| goes into one float buffer,
    made once per call, and is raised to the power p there (not at all for
    p = 1), and each block is freed before the next is asked for.  A
    weighted norm takes each row's x weights from per-row tables made once
    per call, and writes a block's weights into one more buffer of the
    block's size (_row_weights).  So a block allocates nothing of its own
    size beyond its DFT, which takes the freed block's place (see
    _stft_blocks on why).  The inner result is shifted to centred order
    once, before the outer L^q sum.  The +-1 centring phase of the STFT is
    skipped, since it leaves |V_g f| unchanged.  The value equals the norm
    of the dense stft(f, window, x_stride) to the last bit.  A stride below
    1 is refused before any work."""
    if x_stride < 1:
        raise ValueError(f"STFT stride must be at least 1, got {x_stride}")
    if q is None:
        q = p
    g = window if window is not None else default_window(f.grid)
    if abs(g.l2_norm - 1.0) > 1e-8:
        raise ValueError("mod_norm expects a unit-norm window")
    gr = f.grid
    d = gr.dim
    xs = gr.space_axis()[np.arange(0, gr.samples_per_axis, x_stride)]
    wx = bracket(xs[:, None]) ** weight.s2
    weta = np.fft.ifftshift(bracket(gr.freq_axis()[:, None]) ** weight.s1)
    weighted = weight.s1 != 0 or weight.s2 != 0
    if weighted:
        wx_rows = [wx[i].reshape((-1,) + (1,) * d)
                   for i in np.unravel_index(np.arange(len(xs) ** d), (len(xs),) * d)]
        weta_axes = [weta.reshape((1,) * (ax + 1) + (-1,) + (1,) * (d - 1 - ax))
                     for ax in range(d)]
    scale = gr.space_step ** d
    acc = buf = wbuf = None
    for i0, rows in _stft_blocks(f, g, x_stride):
        rows *= scale
        if buf is None:
            buf = np.empty(rows.shape)
            wbuf = np.empty(rows.shape) if weighted else None
        a = np.abs(rows, out=buf[:len(rows)])
        # free the block before the next one's DFT is allocated, which then
        # takes its place instead of growing the heap top (see _stft_blocks)
        del rows
        if weighted:
            a *= _row_weights(wx_rows, weta_axes, slice(i0, i0 + len(a)), wbuf[:len(a)])
        if np.isinf(p):
            part = a.max(axis=0)
            acc = part if acc is None else np.maximum(acc, part)
            continue
        if p != 1:
            a **= p
        if acc is not None:
            a[0] += acc
        acc = np.sum(a, axis=0)
    inner = acc if np.isinf(p) else _inner_root(acc, p, d, gr.space_step * x_stride)
    value = _outer_norm(np.fft.fftshift(inner), q, d, gr.freq_step)
    return NormReport(value=value, p=p, q=q)


def fl_norm(f: Signal, p: float) -> float:
    """||f||_{FL^p} = ||fhat||_{L^p}."""
    return lp_norm(fourier_transform(f), p)


def seq_norm(
    c: GaborCoeffs,
    p: float,
    q: float | None = None,
    weight: WeightSpec = WeightSpec(),
) -> float:
    """Weighted mixed sequence norm, inner over k (space), outer over n."""
    if q is None:
        q = p
    lat = c.lattice
    d = lat.grid.dim
    w_arr = _weight_array(lat.alpha * lat.k_values.astype(float),
                          lat.beta * lat.n_values.astype(float), weight, d)
    return _mixed_norm(c.values, w_arr, p, q, d, 1.0, 1.0)


@dataclass
class EquivalenceReport:
    lo: float
    hi: float
    ratios: tuple[float, ...]

    @property
    def spread(self) -> float:
        return self.hi / self.lo


def gabor_norm_equivalence_check(
    corpus: Sequence[Signal],
    p: float,
    q: Optional[float],
    weight: WeightSpec,
    g: Window,
    lat: GaborLattice,
) -> EquivalenceReport:
    """Ratio interval of seq_norm(C_g f) / mod_norm(f) over a corpus, both
    with the unit-norm window g; q None is p, as in both norms."""
    ratios = []
    for f in corpus:
        sn = seq_norm(gabor_analysis(f, g, lat), p, q, weight)
        mn = mod_norm(f, p, q, weight, window=g).value
        ratios.append(sn / mn)
    return EquivalenceReport(lo=min(ratios), hi=max(ratios), ratios=tuple(ratios))


def dilation_indices(p: float) -> tuple[float, float]:
    """(mu1, mu2): sharp dilation exponents with the breakpoint at p = 2."""
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    inv_pp = 1.0 - inv_p
    mu1 = -inv_pp if p <= 2 else -inv_p
    mu2 = -inv_p if p <= 2 else -inv_pp
    return mu1, mu2


def dilation_exponent_check(
    f: Signal,
    p: float,
    lams: Sequence[float],
    x_stride: int = 1,
) -> GrowthFit:
    """Fit of log ||U_lam f||_{M^p} against log lam over a geometric sweep,
    with mod_norm's default window.

    Callers compare the slope against d*mu1(p) (lam >= 1) or d*mu2(p)
    (lam <= 1); truncation-aliasing warnings from dilate propagate.
    """
    if f.generator is None:
        raise ValueError("dilation sweeps need a generator-backed signal")
    norms = []
    for lam in lams:
        u = dilate(f, lam)
        norms.append(mod_norm(u, p, x_stride=x_stride).value)
    return fit_loglog(list(lams), norms)
