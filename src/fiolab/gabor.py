"""Short-time Fourier transform and Gabor frame machinery.

The STFT follows V_g f(x, eta) = <f, M_eta T_x g>; on the grid this is the
discrete Fourier transform of f * conj(T_x g) evaluated at the frequency
nodes.  The products for a block of x nodes are stacked along a leading
axis and one batched FFT over the last d axes computes their frequency
slices, in any dimension d; consumers take the STFT block by block, so a
norm never holds the whole array.

Gabor systems live on separable lattices alpha*Z^d x beta*Z^d with alpha a
multiple of dx and beta a multiple of deta.  Modulations are exactly
periodic modulo 2*Nyquist on the grid, so the default frequency index range
is one full period; the space range covers the box plus a margin chosen by
an atom-mass rule.  On that range the frame operator is block diagonal
(Walnut), and the frame solvers factor its blocks exactly.

What a window implies on a lattice (the tones of one period, the views of
its plain and conjugated translates and, on first request, the eigh of its
Walnut blocks) is built once and kept in the window's own memo, keyed by
the lattice (Window._tables): frame_bounds, dual_window and tight_window
share one factorization, and analysis and synthesis build no tones after
the first call.  A window's samples are read-only, so its memo cannot go
stale.

Since the tones of any lattice repeat after P = N / gcd(N, n_step)
samples, the same fibers fold the lattice coefficients (_folded_analysis):
one signal, for gabor_analysis, takes its residue sums in one einsum over
the window translates; many columns, the Gabor-matrix rows, go through one
batched matmul against a contiguous copy of the translates made per call.
gabor_synthesis is the adjoint.  All take each residue's tone at its
sample nearest x = 0.  The window translates are one view, sliced with
step -k_step, of the sliding windows of the zero-padded window
(_window_table over _shift_views, which _stft_blocks also reads); no table
of them is gathered.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Optional

import numpy as np

from .grid import (
    Array,
    GridAlignmentError,
    GridSpec,
    Signal,
    gaussian_generator,
    inner_product,
    lp_norm,
    modulate,
    translate,
    _alternating_phase,
    _edge_mass_ratio,
    _zero_fill_shift,
)


# largest frame-bound ratio B / A that the frame solvers accept
RATIO_CAP = 1e6


class NotAFrameError(RuntimeError):
    """Gabor system rejected: frame spectrum not positive or past RATIO_CAP."""


@dataclass(frozen=True)
class Window:
    """Analysis/synthesis window with its cached L^2 norm.

    The samples are made read-only at construction, and the fields cannot
    be reassigned, so what the window implies on a lattice stays valid for
    the window's life.  Each lattice's entry (_LatticeTables) is built on
    first use (_tables) and kept in the window's private memo, which lives
    and dies with the window: analysis, synthesis and the three frame
    solvers on one (window, lattice) pair share one entry."""

    signal: Signal
    l2_norm: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.signal.samples.flags.writeable = False

    @classmethod
    def from_signal(cls, sig: Signal) -> "Window":
        """The window sig / ||sig||_2, of unit norm."""
        nrm = lp_norm(sig, 2)
        if nrm == 0:
            raise ValueError("window must be non-zero")
        return cls(signal=Signal(sig.grid, sig.samples / nrm, sig.generator), l2_norm=1.0)

    @classmethod
    def gaussian(cls, grid: GridSpec, width: float = 1.0) -> "Window":
        return cls.from_signal(Signal.from_generator(grid, gaussian_generator(width)))

    @property
    def grid(self) -> GridSpec:
        return self.signal.grid

    def _tables(self, lat: "GaborLattice") -> "_LatticeTables":
        """This window's memo entry for lat, built on first use.
        Threads that race on a cold entry each build the same values, and
        the last one is kept."""
        t = self._memo.get(lat)
        if t is None:
            p = _tone_period(lat)
            tones = _tone_table(lat, p)
            t = self._memo[lat] = _LatticeTables(
                lattice=lat, period=p, tones=tones,
                conj_rows=_tone_rows(tones, lat.grid.dim).conj(),
                translates=_window_table(self.signal.samples, lat),
                conj_translates=_window_table(np.conj(self.signal.samples), lat))
        return t


def default_window(grid: GridSpec) -> Window:
    """Unit-width Gaussian on roomy boxes, box-scaled on small ones."""
    return Window.gaussian(grid, width=min(1.0, grid.half_width / 4.0))


@dataclass
class StftData:
    """Sampled V_g f over (x nodes x frequency nodes), any d, small N.

    values has shape (x nodes per axis, ...) + grid.shape; the x nodes may be
    strided (every x_stride-th grid node per axis) to bound memory, with the
    Riemann measure downstream scaled accordingly.
    """

    grid: GridSpec
    values: Array
    x_stride: int = 1


def _shift_views(samples: Array, reach: int) -> Array:
    """Sliding windows of samples zero-padded by reach on both sides of
    every axis: the window starting at reach - s on every axis is samples
    moved by s there, out[t] = samples[t - s] with zero fill, for every
    shift |s| <= reach."""
    n = samples.shape[0]
    d = samples.ndim
    pad = np.zeros((n + 2 * reach,) * d, dtype=samples.dtype)
    pad[(slice(reach, reach + n),) * d] = samples
    return np.lib.stride_tricks.sliding_window_view(pad, samples.shape)


# Bytes of complex STFT rows per block of _stft_blocks (4 rows at N = 4096,
# d = 1).  Each block's DFT is a new array, since the out= argument of
# numpy.fft needs numpy >= 2.0, so this size is what bounds it.
_STFT_BLOCK_BYTES = 1 << 18


def _stft_blocks(f: Signal, g: Window, x_stride: int):
    """The STFT in consecutive blocks of x nodes: yields (i0, rows), rows
    the un-shifted DFT over the last d axes of f * conj(T_x g) for the x
    nodes i0, i0 + 1, ... of product(x offsets, repeat=d).  Neither the
    centring (fftshift and the +-1 phase) nor dx^d is applied.  A yielded
    block is valid only until the next one is requested: consumers use or
    copy it first.

    conj(T_x g) is a view into _shift_views of conj(g): the window starting
    at N - s is conj(T_s g) for every shift |s| <= N/2.  The windowed rows
    of a block are multiplied one at a time into one product buffer, made
    once per call, so a block allocates only its DFT.  More per-block
    arrays, or the last block held while the next DFT is made, grow glibc's
    heap top past its trim threshold (about two blocks once the first
    block is freed), and the heap gives pages back and faults them in
    again block after block.  Three c12 mod_norm calls in a fresh process,
    measured with ru_minflt: 37.4k minor faults with |rows| and its power
    made anew per block, 24.9k with mod_norm's buffer, and 0.46k when
    mod_norm also frees each block before asking for the next (3.5k with
    the earlier 1 MiB blocks)."""
    if f.grid != g.grid:
        raise ValueError("signal and window must share a grid")
    gr = f.grid
    n = gr.samples_per_axis
    d = gr.dim
    shifted = _shift_views(np.conj(g.signal.samples), n)
    starts = n - (np.arange(0, n, x_stride) - n // 2)
    total = len(starts) ** d
    step = max(1, _STFT_BLOCK_BYTES // (16 * n ** d))
    axes = tuple(range(1, d + 1))
    prod = np.empty((min(step, total),) + gr.shape, dtype=complex)
    for i0 in range(0, total, step):
        k = min(step, total - i0)
        for j, idx in enumerate(zip(*np.unravel_index(np.arange(i0, i0 + k),
                                                      (len(starts),) * d))):
            np.multiply(f.samples, shifted[tuple(starts[i] for i in idx)], out=prod[j])
        yield i0, np.fft.fftn(prod[:k], axes=axes)


def _centred_stft_blocks(f: Signal, g: Window, x_stride: int):
    """The blocks (i0, rows) of _stft_blocks, centred (fftshift and the +-1
    phase) and scaled by dx^d: rows i0, i0 + 1, ... of the STFT, each valid
    only until the next is requested."""
    gr = f.grid
    axes = tuple(range(1, gr.dim + 1))
    ph = _alternating_phase(gr.samples_per_axis, gr.dim)
    scale = gr.space_step ** gr.dim
    for i0, rows in _stft_blocks(f, g, x_stride):
        rows = np.fft.fftshift(rows, axes=axes)
        rows *= ph
        rows *= scale
        yield i0, rows


def stft(f: Signal, g: Window, x_stride: int = 1) -> StftData:
    """Dense STFT: the blocks of _centred_stft_blocks written into one
    preallocated array."""
    gr = f.grid
    m = len(range(0, gr.samples_per_axis, x_stride))
    vals = np.empty((m ** gr.dim,) + gr.shape, dtype=complex)
    for i0, rows in _centred_stft_blocks(f, g, x_stride):
        vals[i0:i0 + len(rows)] = rows
    return StftData(gr, vals.reshape((m,) * gr.dim + gr.shape), x_stride)


def stft_direct(f: Signal, g: Window, x_stride: int = 1) -> StftData:
    """O(N^{2d}) summation reference; for tests and small grids."""
    gr = f.grid
    n = gr.samples_per_axis
    d = gr.dim
    dx = gr.space_step ** d
    pts = gr.space_points()
    fre = gr.freq_points()
    ms = np.arange(0, n, x_stride)
    shape = (len(ms),) * d + gr.shape
    vals = np.empty(shape, dtype=complex)
    fs = f.samples.ravel()
    for idx in product(range(len(ms)), repeat=d):
        offs = tuple(int(ms[i]) - n // 2 for i in idx)
        tg = _zero_fill_shift(g.signal.samples, offs).ravel()
        h = fs * np.conj(tg)
        col = (np.exp(-2j * np.pi * (fre @ pts.T)) @ h) * dx
        vals[idx] = col.reshape(gr.shape)
    return StftData(gr, vals, x_stride)


def istft(F: StftData, g: Window) -> Signal:
    """Riemann-sum inversion u = sum V(x,eta) M_eta T_x g dx deta.

    Requires a unit-norm window; warns when the window carries more than
    1e-8 of its mass near the boundary (zero-fill translations then lose
    reconstruction accuracy).
    """
    if abs(g.l2_norm - 1.0) > 1e-8:
        raise ValueError("istft needs a window normalised to unit L^2 norm")
    gr = g.grid
    n = gr.samples_per_axis
    d = gr.dim
    bmass = _edge_mass_ratio(g.signal.samples, gr.space_axis(), 0.9 * gr.half_width)
    if bmass > 1e-8:
        warnings.warn(f"window boundary mass {bmass:.2e} exceeds 1e-08")
    axes = tuple(range(1, d + 1))
    ph = _alternating_phase(n, d)
    scale = gr.space_step ** d
    offs = np.arange(0, n, F.x_stride) - n // 2
    V = F.values.reshape((-1,) + gr.shape)
    syn = np.fft.ifftn(np.fft.ifftshift(V * ph, axes=axes), axes=axes) / scale
    acc = np.zeros(gr.shape, dtype=complex)
    for i, off in enumerate(product(offs, repeat=d)):
        acc += syn[i] * _zero_fill_shift(g.signal.samples, off)
    return Signal(gr, acc * scale * F.x_stride ** d)


# ---------------------------------------------------------------------------
# Lattices and frame operators
# ---------------------------------------------------------------------------

def _mass_margin(g2: Array, k: int, alpha: float, dx: float) -> int:
    """Grow k while the marginal g2 (|g|^2 along one axis) translated by
    (k + 1) alpha keeps at least 1e-12 of its mass in the box."""
    tot = float(np.sum(g2))
    n = len(g2)
    while True:
        s = int(round((k + 1) * alpha / dx))
        if s >= n or float(np.sum(g2[: n - s])) < 1e-12 * tot:
            return k
        k += 1


@dataclass(frozen=True)
class GaborLattice:
    """Separable lattice alpha Z^d x beta Z^d with explicit index ranges."""

    grid: GridSpec
    alpha: float
    beta: float
    k_index: tuple[int, ...]
    n_index: tuple[int, ...]

    def __post_init__(self):
        dx, deta = self.grid.space_step, self.grid.freq_step
        if abs(self.alpha / dx - round(self.alpha / dx)) > 1e-9:
            raise GridAlignmentError("alpha must be a multiple of the space step")
        if abs(self.beta / deta - round(self.beta / deta)) > 1e-9:
            raise GridAlignmentError("beta must be a multiple of the frequency step")
        k0 = self.k_index[0]
        if self.k_index != tuple(range(k0, k0 + len(self.k_index))):
            raise ValueError("k_index must be consecutive integers")

    @property
    def k_step(self) -> int:
        return int(round(self.alpha / self.grid.space_step))

    @property
    def n_step(self) -> int:
        return int(round(self.beta / self.grid.freq_step))

    @property
    def k_values(self) -> Array:
        return np.asarray(self.k_index, dtype=int)

    @property
    def n_values(self) -> Array:
        return np.asarray(self.n_index, dtype=int)

    @property
    def num_atoms(self) -> int:
        return (len(self.k_index) * len(self.n_index)) ** self.grid.dim

    def k_tuples(self) -> list[tuple[int, ...]]:
        return list(product(self.k_index, repeat=self.grid.dim))

    def n_tuples(self) -> list[tuple[int, ...]]:
        return list(product(self.n_index, repeat=self.grid.dim))

    @classmethod
    def for_grid(
        cls,
        grid: GridSpec,
        alpha: float,
        beta: float,
        window: Optional[Window] = None,
        k_radius: Optional[int] = None,
        n_radius: Optional[int] = None,
    ) -> "GaborLattice":
        """Default ranges: k spans the box plus the window-mass margin (the
        largest over the axes, each from the window's |g|^2 summed over the
        other axes), n one full modulation period (modulations alias with
        period 2*Nyquist)."""
        if k_radius is None:
            k_radius = int(np.floor(grid.half_width / alpha))
            if window is not None:
                g2 = np.abs(window.signal.samples) ** 2
                d = grid.dim
                k_radius = max(
                    _mass_margin(g2.sum(axis=tuple(b for b in range(d) if b != a)),
                                 k_radius, alpha, grid.space_step)
                    for a in range(d))
        k_index = tuple(range(-k_radius, k_radius + 1))
        if n_radius is None:
            period = int(round(2.0 * grid.nyquist / beta))
            n_index = tuple(range(-period // 2, period // 2))
        else:
            n_index = tuple(range(-n_radius, n_radius + 1))
        return cls(grid, float(alpha), float(beta), k_index, n_index)


@dataclass
class GaborCoeffs:
    """<f, g_{k,n}> over the lattice index box; axes (k..., n...)."""

    lattice: GaborLattice
    values: Array


def gabor_atom(g: Window, lat: GaborLattice, k, n) -> Signal:
    """g_{k,n} = M_{beta n} T_{alpha k} g."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    n = np.atleast_1d(np.asarray(n, dtype=float))
    return modulate(translate(g.signal, lat.alpha * k), lat.beta * n)


def _check_band(lat: GaborLattice) -> None:
    """GridAlignmentError unless every frequency beta n of the lattice's n
    range is a node of the resolved band [-N/2, N/2) deta."""
    n = lat.grid.samples_per_axis
    idx = lat.n_values * lat.n_step + n // 2
    if idx.min() < 0 or idx.max() >= n:
        raise GridAlignmentError("frequency lattice exceeds the resolved band")


def _window_table(samples: Array, lat: GaborLattice) -> Array:
    """All space-translates T_{alpha k} of the window samples, axes
    (k_1 .. k_d, x_1 .. x_d) with each k axis in lat.k_index order: a
    read-only view of _shift_views, padded to reach the largest lattice
    shift, and sliced with step -k_step (the translate by s starts at
    reach - s).  A translate by N or more per axis is all zero fill.
    Nothing is copied; a caller that needs contiguous memory takes one
    copy (_fiber_translates)."""
    ks = lat.k_step
    k0, k1 = lat.k_index[0], lat.k_index[-1]
    reach = ks * max(abs(k0), abs(k1))
    views = _shift_views(samples, reach)
    lo = reach - k1 * ks
    d = lat.grid.dim
    return views[(slice(lo, lo + (k1 - k0) * ks + 1, ks),) * d][(slice(None, None, -1),) * d]


def _fiber_translates(table: Array, lat: GaborLattice, p: int) -> Array:
    """The translates of a _window_table view on the Walnut fibers of
    period p (see _fibers), in one contiguous copy of shape (p^d, Q^d, K^d),
    with Q = N / p and the K^d k tuples in lat.k_tuples() order."""
    d = lat.grid.dim
    q = lat.grid.samples_per_axis // p
    t = table.reshape(table.shape[:d] + (q, p) * d)
    r_ax, q_ax = list(range(d + 1, 3 * d, 2)), list(range(d, 3 * d, 2))
    t = np.ascontiguousarray(t.transpose(r_ax + q_ax + list(range(d))))
    return t.reshape(p ** d, q ** d, -1)


def _tone_period(lat: GaborLattice) -> int:
    """P = N / gcd(N, n_step): every tone exp(2 pi i beta n x) of the
    lattice repeats after P samples per axis."""
    n = lat.grid.samples_per_axis
    return n // math.gcd(n, lat.n_step)


def _tone_table(lat: GaborLattice, p: int) -> Array:
    """tones[n, r] = exp(2 pi i beta n x_j) for n in lat.n_index at one
    sample j of each residue r = 0 .. p-1 modulo p: the j = r (mod p) in the
    centred window [N/2 - p/2, N/2 + p/2), where |x_j| <= p dx / 2 keeps the
    phase arguments, and their rounding, small.  With p the tone period
    (_tone_period) the tone of every sample is that of its residue; p = N
    gives the whole space axis in order."""
    n = lat.grid.samples_per_axis
    j0 = n // 2 - p // 2
    x = lat.grid.space_axis()[j0 + (np.arange(p) - j0) % p]
    return np.exp(2j * np.pi * lat.beta * np.multiply.outer(
        lat.n_values.astype(float), x))


def _tone_rows(tones: Array, d: int) -> Array:
    """The tones of all n tuples from a 1-D table tones[n, x]: the product
    over axes of the 1-D tones, axes ordered (n_1..n_d, x_1..x_d), as rows
    in lat.n_tuples() order over the flattened x tuples."""
    t = reduce(np.multiply.outer, [tones] * d)
    t = t.transpose(list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2)))
    return t.reshape(tones.shape[0] ** d, -1)


@dataclass
class _LatticeTables:
    """What one window implies on one lattice, kept in the window's memo
    (Window._tables): the tone period P (_tone_period), the tones of one
    period (_tone_table) and the conjugated rows of their n tuples, which
    the fold reads (_folded_analysis), and the views of the plain and
    conjugated window translates (_window_table).  The eigendecomposition
    of the Walnut blocks is factored on first request (walnut)."""

    lattice: GaborLattice
    period: int
    tones: Array
    conj_rows: Array
    translates: Array
    conj_translates: Array
    _walnut: Optional[tuple[Array, Array]] = field(default=None, init=False, repr=False)

    def walnut(self) -> tuple[Array, Array]:
        """eigh of the Walnut blocks (_frame_blocks): eigenvalues (P^d, Q^d)
        ascending per block and eigenvectors (P^d, Q^d, Q^d), factored once.
        _frame_blocks raises GridAlignmentError first, and keeps nothing,
        when n_index is not one full modulation period."""
        if self._walnut is None:
            self._walnut = np.linalg.eigh(_frame_blocks(self.translates, self.lattice))
        return self._walnut


def _atom_rows(g: Window, lat: GaborLattice) -> Array:
    """All atoms M_{beta n} T_{alpha k} g as flattened rows, k-major, in
    lat.k_tuples() x lat.n_tuples() order, from the translates of the
    window's memo and the tones of the whole space axis."""
    tones = _tone_rows(_tone_table(lat, lat.grid.samples_per_axis), lat.grid.dim)
    TG = g._tables(lat).translates.reshape(-1, 1, tones.shape[1])
    return (TG * tones).reshape(-1, tones.shape[1])


def gabor_analysis(f: Signal, g: Window, lat: GaborLattice) -> GaborCoeffs:
    """C_g f: the Walnut-fiber fold (_folded_analysis) of the one column f,
    in the coefficient shape.  GridAlignmentError when the n range leaves
    the resolved band."""
    _check_band(lat)
    d = f.grid.dim
    vals = _folded_analysis(f.samples.reshape(-1, 1), g, lat)
    return GaborCoeffs(lat, vals.reshape((len(lat.k_index),) * d + (len(lat.n_index),) * d))


def gabor_synthesis(c: GaborCoeffs, g: Window, lat: GaborLattice) -> Signal:
    """D_g c = sum c_{k,n} M_{beta n} T_{alpha k} g, the adjoint of the fold:
    each n axis contracted with the tones of one period P, then one einsum
    over the view of the window translates, both read from the window's
    memo (Window._tables): sample qP + r of an axis takes residue r,
    summed over k."""
    gr = g.grid
    d = gr.dim
    t = g._tables(lat)
    p = t.period
    W = c.values.reshape((-1,) + (len(lat.n_index),) * d)
    for _ in range(d):
        W = np.tensordot(W, t.tones, axes=([1], [0]))
    TG = t.translates
    TG = TG.reshape(TG.shape[:d] + (gr.samples_per_axis // p, p) * d)
    k_ax, qr_ax = list(range(d)), list(range(d, 3 * d))
    out = np.einsum(W.reshape(TG.shape[:d] + (p,) * d), k_ax + qr_ax[1::2],
                    TG, k_ax + qr_ax, qr_ax)
    return Signal(gr, out.reshape(gr.shape))


def gabor_analysis_direct(f: Signal, g: Window, lat: GaborLattice) -> GaborCoeffs:
    """Atom-by-atom inner products; the summation oracle for tests."""
    d = f.grid.dim
    shape = (len(lat.k_index),) * d + (len(lat.n_index),) * d
    out = np.empty(shape, dtype=complex)
    for kidx in product(range(len(lat.k_index)), repeat=d):
        for nidx in product(range(len(lat.n_index)), repeat=d):
            k = [lat.k_index[i] for i in kidx]
            n = [lat.n_index[i] for i in nidx]
            out[kidx + nidx] = inner_product(f, gabor_atom(g, lat, k, n))
    return GaborCoeffs(lat, out)


def frame_operator(f: Signal, g: Window, lat: GaborLattice) -> Signal:
    """S_g f = D_g C_g f."""
    return gabor_synthesis(gabor_analysis(f, g, lat), g, lat)


def frame_matrix_dense(g: Window, lat: GaborLattice) -> Array:
    """Dense matrix of S_g acting on flattened grid vectors (any d, small N)."""
    gr = g.grid
    G = _atom_rows(g, lat)
    # (S f)_t = sum_a G[a,t] * sum_{t'} conj(G[a,t']) f_{t'} dx^d
    return (G.T @ G.conj()) * gr.space_step ** gr.dim


@dataclass
class FrameBounds:
    """Extreme eigenvalues A = lower, B = upper of S_g, read from the
    window's one Walnut factorization (_LatticeTables.walnut); is_frame
    holds when A > 0 and B / A <= RATIO_CAP.  iterations is the number of
    Walnut blocks (P^d, see _frame_blocks)."""

    lower: float
    upper: float
    iterations: int
    is_frame: bool


def _period(lat: GaborLattice) -> int:
    """P = N / n_step, the modulation period in samples, once n_index is
    checked to cover exactly one period."""
    n, q = lat.grid.samples_per_axis, lat.n_step
    p = n // q
    if n % q or lat.n_index != tuple(range(lat.n_index[0], lat.n_index[0] + p)):
        raise GridAlignmentError(
            f"the frame solvers need one full modulation period: n_step {q} "
            f"must divide N = {n} and n_index must be N / n_step consecutive "
            f"integers (got {len(lat.n_index)} from {lat.n_index[0]})")
    return p


def _fibers(a: Array, p: int, d: int) -> Array:
    """Regroup the last d axes (length N = Q p each) as (p^d, Q^d): sample
    q p + r of an axis goes to residue r, position q; leading axes stay."""
    lead = a.shape[:a.ndim - d]
    q = a.shape[-1] // p
    m = len(lead)
    order = list(range(m)) + [m + 2 * i + 1 for i in range(d)] + [m + 2 * i for i in range(d)]
    return a.reshape(lead + (q, p) * d).transpose(order).reshape(lead + (p ** d, q ** d))


def _unfibers(b: Array, p: int, shape: tuple[int, ...]) -> Array:
    """Inverse of _fibers for one grid array."""
    d = len(shape)
    q = shape[0] // p
    order = [k for i in range(d) for k in (d + i, i)]
    return b.reshape((p,) * d + (q,) * d).transpose(order).reshape(shape)


# Bytes of complex per-column work in one column block of _folded_analysis
# (the larger of a column's residue sums and its coefficients).
_FOLD_BLOCK_BYTES = 1 << 22


def _folded_analysis(cols: Array, g: Window, lat: GaborLattice) -> Array:
    """<h, g_{k',n'}> for every column h of cols (grid size, m), as rows
    k-major in lat.k_tuples() x lat.n_tuples() order: shape (num_atoms, m).

    beta is a multiple of the frequency step, so every tone
    exp(2 pi i beta n' x) repeats after P = N / gcd(N, n_step) samples per
    axis.  The inner product therefore folds onto the Walnut fibers of
    _fibers: the Q^d = (N / P)^d samples of each residue tuple r are summed
    against conj(T_{k'} g) first, and the P^d residue sums then against the
    conjugated tones of one period, each residue's taken at its sample
    nearest x = 0 (_tone_table), one gemm.  The conjugated tone rows and
    the view of the conj(g) translates come from the window's memo
    (Window._tables), built once per lattice.  One column (gabor_analysis)
    takes its residue sums in one einsum over that view, with no table
    built.  More columns (the Gabor-matrix rows) take one batched matmul
    giving (P^d, K, m) against one contiguous copy of the translates
    (_fiber_translates, read transposed; made per call and not kept), in
    column blocks of _FOLD_BLOCK_BYTES.
    """
    gr = g.grid
    d = gr.dim
    t = g._tables(lat)
    p, T = t.period, t.conj_rows
    nk, nn = len(lat.k_index) ** d, T.shape[0]
    m = cols.shape[1]
    scale = gr.space_step ** d
    if m == 1:
        q = gr.samples_per_axis // p
        V = t.conj_translates
        k_ax, qr_ax = list(range(d)), list(range(d, 3 * d))
        Y = np.einsum(V.reshape(V.shape[:d] + (q, p) * d), k_ax + qr_ax,
                      cols.reshape((q, p) * d), qr_ax, k_ax + qr_ax[1::2])
        Z = T @ Y.reshape(nk, -1).T
        return (Z.T * scale).reshape(-1, 1)
    W = _fiber_translates(t.conj_translates, lat, p).transpose(0, 2, 1)
    out = np.empty((nk, nn, m), dtype=complex)
    step = max(1, _FOLD_BLOCK_BYTES // (16 * nk * max(p ** d, nn)))
    for c0 in range(0, m, step):
        h = _fibers(cols[:, c0:c0 + step].T.reshape((-1,) + gr.shape), p, d)
        Y = W @ h.transpose(1, 2, 0)
        Z = T @ Y.reshape(p ** d, -1)
        np.multiply(Z.reshape(nn, nk, -1).transpose(1, 0, 2), scale,
                    out=out[:, :, c0:c0 + step])
    return out.reshape(nk * nn, m)


def _frame_blocks(translates: Array, lat: GaborLattice) -> Array:
    """S_g as its P^d Hermitian Walnut blocks, shape (P^d, Q^d, Q^d).

    When n runs over one full period P = N / n_step (Q = n_step), the sum
    over n of exp(2 pi i beta n (x - y)) is P where x = y modulo P samples
    on every axis and 0 elsewhere, so S_g only couples samples of one
    residue tuple r: S[qP+r, q'P+r] = (P dx)^d sum_k T_k g(qP+r) conj(T_k g(q'P+r))
    (D. Walnut, J. Math. Anal. Appl. 165, 1992).  The translates are read
    once from their view (_window_table) into a contiguous (P^d, Q^d, K^d)
    table (_fiber_translates), so the batched product runs in BLAS.
    """
    gr = lat.grid
    p = _period(lat)
    T = _fiber_translates(translates, lat, p)
    return (T @ T.conj().transpose(0, 2, 1)) * (p * gr.space_step) ** gr.dim


def _verdict(spec: Array) -> FrameBounds:
    lower, upper = float(spec.min()), float(spec.max())
    is_frame = lower > 0 and upper / lower <= RATIO_CAP
    return FrameBounds(lower=lower, upper=upper, iterations=len(spec), is_frame=is_frame)


def frame_bounds(g: Window, lat: GaborLattice, seed: int = 7) -> FrameBounds:
    """Exact frame bounds A, B: the extreme eigenvalues of the Walnut blocks,
    from the window's one factorization on lat (_LatticeTables.walnut),
    which dual_window and tight_window then reuse.  is_frame fails when
    A <= 0 or B / A > RATIO_CAP.  seed is accepted for old callers and not
    read."""
    return _verdict(g._tables(lat).walnut()[0])


def _frame_power(g: Window, lat: GaborLattice, s: float,
                 bounds: Optional[FrameBounds] = None) -> Window:
    """S_g^s g from the window's one eigendecomposition of the Walnut blocks
    on lat (_LatticeTables.walnut); bounds, when given, replaces the block
    spectrum's is_frame verdict."""
    gr = g.grid
    t = g._tables(lat)
    lam, V = t.walnut()
    fb = bounds if bounds is not None else _verdict(lam)
    if not fb.is_frame:
        raise NotAFrameError(
            f"frame spectrum [{fb.lower:.3e}, {fb.upper:.3e}] fails A > 0, B/A <= RATIO_CAP")
    p = t.period
    gb = _fibers(g.signal.samples, p, gr.dim)[..., None]
    hb = V @ (lam[..., None] ** s * (V.conj().transpose(0, 2, 1) @ gb))
    sig = Signal(gr, _unfibers(hb[..., 0], p, gr.shape))
    return Window(signal=sig, l2_norm=lp_norm(sig, 2))


def dual_window(g: Window, lat: GaborLattice) -> Window:
    """Canonical dual gamma = S_g^{-1} g, solved exactly on the Walnut blocks;
    NotAFrameError when the block spectrum fails the RATIO_CAP test."""
    return _frame_power(g, lat, -1.0)


def tight_window(g: Window, lat: GaborLattice,
                 bounds: Optional[FrameBounds] = None) -> Window:
    """Canonical tight window h = S_g^{-1/2} g, exact on the Walnut blocks.
    NotAFrameError when the frame is degenerate: by bounds.is_frame when
    bounds is given, else by the block spectrum against RATIO_CAP."""
    return _frame_power(g, lat, -0.5, bounds=bounds)
