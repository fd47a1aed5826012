"""Operator quantizations and the Gabor-matrix toolbox.

Every quantization is the oscillatory Riemann sum of one kernel
K[x, eta] = exp(2 pi i Phi(x, eta)) sigma(x, eta):

* Kohn-Nirenberg  p(x,D)f(x) = sum_eta exp(2 pi i x.eta) p(x,eta) fhat(eta) deta^d
* type I FIO      A f(x)     = sum_eta exp(2 pi i Phi(x,eta)) sigma fhat deta^d
* type II FIO     (Bf)^(eta) = sum_x exp(-2 pi i Phi(x,eta)) conj(sigma) f dx^d

The type II sum is the conjugate transpose of the type I kernel, so with the
grid's unitary transform pair the fio_type2 operator of (Phi, sigma) is the
exact discrete adjoint of its fio_type1 operator, and adjoint identities
hold to rounding rather than to quadrature accuracy.

OperatorHandle.apply_columns is the one surface that applies an operator, A
or A*, to flat sample columns; apply, the structural checks, compose_leading,
gabor_matrix, the dense norm and the experiments' sweeps all go through it.
pseudo_weyl takes the midpoint sum (_weyl_sum), every other kind
_kernel_apply, whose path kernel_path names.  The paths:

* "fft": two FFTs, a F^{-1} b F, when sigma declares separable = (a(x), b(eta))
  and every grid row is plain, i.e. the phase is x.eta there (phase None, or
  a phase declaring warp_x that leaves every grid point fixed);
* "warped_rows": separable sigma and a phase Phi = sum_i psi(x_i) eta_i that
  declares warp_x = psi; the plain rows (psi(x) == x exactly) come from the
  FFT, and the oscillatory sum runs only over the warped ones.  For the
  type II sum the plain x nodes go through the forward DFT and the warped
  ones through the conjugate kernel;
* "phase_kernel": the phase-only kernel on every row with a(x) and b(eta)
  applied as vectors, for any other phase with a separable symbol;
* "dense": the kernel times sigma(x, eta) on every row, the reference.

A symbol rebuilt without `separable` (dataclasses.replace(sym,
separable=None), which keeps its fn) always takes the dense reference path;
the tests compare the fast paths with it.

How the sum is formed is separate from the path.  On "warped_rows" and
"phase_kernel", a phase that declares warp_x (Phi = psi(x).eta) or
warp_eta (Phi = x.chi(eta)) is linear on one side, whose nodes lie on a
uniform grid.  Writing a node index there as k = Q a + b, Q the power of
two nearest sqrt(N),
exp(2 pi i s (v0 + (Q a + b) h)) = exp(2 pi i s (v0 + Q a h)) exp(2 pi i s b h),
so for each a the sum over b is one thin matrix product against a short
table of the second factor, scaled by a row of the first (_table_sum): no
kernel block and no exp per entry.  The derived phases of symbols.py swap a
declared warp to the other side (_transposed_phase) or negate it
(_negated_phase), and the derived symbols (_transposed_symbol,
_starred_symbol) keep `separable`, so the operators of the transpose and
Fourier-conjugation identities take the tables too.  The "dense" path and
phases that declare neither warp (hand-built ones, dilation conjugates)
multiply kernel blocks of exp(2 pi i Phi), evaluated entry by entry
(_block_builder): the reference the tables are tested against.

op_norm_estimate gives the L^2 norm exactly to rounding on every route,
also at and just above norm gamma (_exact_l2_norm).  For a constant
separable symbol on the "fft" and "warped_rows" paths it comes from one
real 2w x 2w eigenvalue problem over the w warped rows, whose Gram entries
are closed-form Dirichlet sums over the frequency grid, so no kernel block
is built (_exact_l2_norm); otherwise it is the square root of the top
eigenvalue of A*A, A the dense sample matrix (_dense_l2_norm).

gabor_matrix sends every lattice atom through one application as a column
and folds the outputs onto the Walnut fibers of the tone period
(gabor._folded_analysis) instead of a dense atoms x outputs Gram product.
Both dense allocations, the Gabor matrix and the sample matrix of the norm,
raise DenseSizeError before anything is allocated when they would exceed
one byte budget, DENSE_BYTES.  Every later pass over the entries (the zero
floor, diag_decay_certify, schur_certify and the persist exports) walks
them in row blocks of whole k' rows (_row_blocks), so it holds one block's
temporaries instead of num_atoms^2 ones; diag_decay_certify builds each
block's envelope from per-axis-group bracket tables.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gabor import GaborLattice, Window, _atom_rows, _folded_analysis
from .grid import (
    Array,
    GridSpec,
    Signal,
    TruncationAliasingWarning,
    _dft,
    bracket,
    dilate,
    dual_grid,
    fourier_transform,
    inner_product,
    inverse_fourier,
    lp_norm,
)
from .symbols import Box, PhaseSpec, SymbolSpec, _negated_phase, _starred_symbol, \
    _transposed_phase, _transposed_symbol, conjugated_piece, dot, dyadic_piece, \
    growth_validate, nondeg_validate, psi_j

DEFAULT_CHUNK = 256
ACTIVE_TOL = 1e-15
# Gabor-matrix entries below ZERO_FLOOR times the peak modulus are set to 0.
# On the `fiolab matrix` grid (N = 1024, L = 16) the fold's error against
# the dense Gram product is 1.1e-15 of the peak at the default radius 8 and
# 5.4e-15 at radius 24, below the floor: the floor, not rounding, decides
# which entries are kept.
ZERO_FLOOR = 1e-14
# largest dense allocation: a quarter of an 8 GB machine.  gabor_matrix's
# atom table, operator outputs and entries (num_atoms x size x 16 B twice,
# plus num_atoms^2 x 16 B) fit 8192 atoms at N = 4096.  _dense_l2_norm's
# sample matrix, A*A and their temporaries, counted as 5 x size^2 x 16 B
# (traced peaks were 4.0-4.3 times size^2 x 16 B), fit size = 4096 and not
# d = 2, N = 128
DENSE_BYTES = 2 * 2 ** 30
# complex entry bytes per row block of a finished Gabor matrix (_row_blocks);
# a block is never less than one whole k' row (one k', every n', all columns)
ROW_BLOCK_BYTES = 2 ** 20


def _active_columns(c: Array) -> Array:
    """Rows of c (one or many columns) above ACTIVE_TOL times their column's
    peak."""
    a = np.abs(c.reshape(len(c), -1))
    return np.nonzero(np.any(a > ACTIVE_TOL * a.max(axis=0), axis=1))[0]


def _warped_rows(phase: Optional[PhaseSpec], grid: GridSpec) -> Optional[Array]:
    """Grid rows x whose kernel row is not the plain Fourier row exp(2 pi i x.eta):
    none for phase None (x.eta itself), those with psi(x) != x in some
    coordinate for a phase declaring warp_x = psi, and None (unknown, so
    every row) for any other phase."""
    if phase is None:
        return np.arange(0)
    if phase.warp_x is None:
        return None
    xs = grid.space_points()
    return np.nonzero(np.any(phase.warp_x(xs) != xs, axis=-1))[0]


def kernel_path(phase: Optional[PhaseSpec], sym: SymbolSpec,
                grid: GridSpec) -> tuple[str, Array]:
    """The path _kernel_apply takes for (phase, sym) on grid, "fft",
    "warped_rows", "phase_kernel" or "dense" as the module docstring lists
    them, and the grid rows it builds kernel rows for (the warped rows on
    "fft" and "warped_rows", every row otherwise).

    The label does not say how the sum is formed: on "warped_rows" and
    "phase_kernel" a phase declaring warp_x or warp_eta is contracted
    against exponential tables (_table_sum) with no kernel block, and any
    other multiplies kernel blocks of exp(2 pi i Phi) (_block_builder).
    """
    if sym.separable is None:
        return "dense", np.arange(grid.size)
    rows = _warped_rows(phase, grid)
    if rows is None:
        return "phase_kernel", np.arange(grid.size)
    return ("warped_rows" if len(rows) else "fft"), rows


def _split(n: int) -> int:
    """Q = 2^round(log2(n) / 2), the power of two nearest sqrt(n) on a log
    scale: a node index k < n of a linear-side axis is split as k = Q a + b
    with b < Q, so its tables have ceil(n / Q) and Q rows."""
    return 2 ** round(np.log2(n) / 2)


def _exp_table(nodes: Array, s: Array) -> Array:
    """T[i, j] = exp(2 pi i nodes[i] s[j])."""
    T = np.multiply(np.multiply.outer(nodes, s), 2j * np.pi)
    return np.exp(T, out=T)


def _table_sum(s: Array, axis: Array, step: float, coef: Array,
               lin: Optional[Array] = None) -> Array:
    """Sums of exp(2 pi i s_j.v_l) between nonuniform points s (w, d) and the
    nodes v_l of the uniform grid axis^d (spacing step), from two short
    tables per axis and no kernel block.

    With lin, coef (k, m) holds coefficients at the flat node indices lin,
    and the result (w, m) is out[j] = sum_l exp(2 pi i s_j.v_l) coef[l], the
    nonuniform output.  Without lin, coef (w, m) sits at s, and the result
    (n^d, m) is out[l] = sum_j exp(2 pi i s_j.v_l) coef[j] on every node,
    the linear output.

    Each axis index is split as l_t = Q a_t + b_t with b_t < Q = _split(n),
    the axis padded to A Q nodes with A = ceil(n / Q), so
    exp(2 pi i s_t v_{Q a + b}) = hi_t[a, j] lo_t[b, j] with
    hi_t[a, j] = exp(2 pi i s_jt v_{Q a}) and lo_t[b, j] = exp(2 pi i s_jt b step).
    The products of the lo tables over b = (b_1, ..., b_d) form one
    Q^d x w table L, and for each a the sum over b is one GEMM of output
    width m against L.  The product h of the hi rows scales the m-wide side
    when m <= Q^d, and L otherwise, whichever is smaller.  With lin, blocks
    a holding no coefficient are skipped."""
    w, d = s.shape
    n = len(axis)
    q = _split(n)
    na = -(-n // q)
    m = coef.shape[1]
    lo = [_exp_table(step * np.arange(q), st) for st in s.T]
    hi = [_exp_table(axis[q * np.arange(na)], st) for st in s.T]
    L = functools.reduce(lambda P, T: (P[:, None] * T).reshape(len(P) * q, w), lo)
    narrow = m <= len(L)
    # (A, Q) per axis, interleaved, with every a axis moved in front of the b axes
    split = tuple(k for _ in range(d) for k in (na, q)) + (m,)
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2)) + (2 * d,)
    if lin is not None:
        P = np.zeros((na * q,) * d + (m,), dtype=complex)
        P[np.unravel_index(lin, (n,) * d)] = coef
        P = P.reshape(split).transpose(order)
        out = np.zeros((w, m), dtype=complex)
        for a in np.ndindex(*(na,) * d):
            if P[a].any():
                h = functools.reduce(np.multiply, [hi[t][a[t]] for t in range(d)])
                B = P[a].reshape(-1, m)
                out += h[:, None] * (L.T @ B) if narrow else (L * h).T @ B
        return out
    out = np.empty((na,) * d + (q,) * d + (m,), dtype=complex)
    for a in np.ndindex(*(na,) * d):
        h = functools.reduce(np.multiply, [hi[t][a[t]] for t in range(d)])
        S = L @ (h[:, None] * coef) if narrow else (L * h) @ coef
        out[a] = S.reshape((q,) * d + (m,))
    out = out.transpose(np.argsort(order)).reshape((na * q,) * d + (m,))
    return out[(slice(0, n),) * d].reshape(-1, m)


def _block_builder(phase: Optional[PhaseSpec], sym: SymbolSpec, grid: GridSpec,
                   R: Array, C: Array) -> Callable[[slice], Array]:
    """The kernel blocks of _kernel_apply's reference loop: for a slice r of
    the grid rows R, K[R[r], C] over the frequency columns C (indices into
    freq_points), exp(2 pi i Phi) entry by entry, times sigma(x, eta) when
    the symbol is not separable.  Only the "dense" path and phases that
    declare neither warp_x nor warp_eta reach it; _table_sum, which the
    declared warps take, is tested against it."""
    xs, E = grid.space_points(), grid.freq_points()[None, C]
    sep = sym.separable is not None

    def build(r):
        X = xs[R[r], None]
        K = np.multiply(dot(X, E) if phase is None else phase.fn(X, E), 2j * np.pi)
        np.exp(K, out=K)
        if not sep:
            K *= sym(X, E)
        return K

    return build


def _kernel_apply(
    phase: Optional[PhaseSpec],
    sym: SymbolSpec,
    grid: GridSpec,
    vals: Array,
    adjoint: bool = False,
) -> Array:
    """A f, or A* f with adjoint=True, where A f(x) = sum_eta K[x, eta] fhat(eta)
    deta^d and K = exp(2 pi i Phi) sigma; phase None stands for x.eta.

    vals holds the samples of one signal, flat (size,), or of many as the
    columns of (size, m); the result has the same shape.  A* f is
    F^{-1}(sum_x conj(K[x, eta]) f(x) dx^d).  On the "fft" and "warped_rows"
    paths (kernel_path) the plain rows x go through the transform pair, the
    inverse DFT for A and the forward DFT for A*, and only the warped rows
    enter the oscillatory sum.  That sum runs over the active input
    coefficients: fhat(eta) b(eta) for A, conj(a(x)) f(x) for A*, each
    above ACTIVE_TOL of its column's peak.  With a separable symbol and a
    phase declaring warp_x (psi(x).eta) or warp_eta (x.chi(eta)), the
    coefficients are contracted against two exponential tables per axis
    of the linear side (_table_sum): the output is nonuniform for warp_x's
    A and warp_eta's A*, and on the linear grid for the other two.  The
    dense path and phases declaring no warp multiply kernel blocks of
    DEFAULT_CHUNK rows from _block_builder, the reference.
    """
    n = grid.size
    cols = vals.reshape(n, -1)
    m = cols.shape[1]
    gd = dual_grid(grid)

    def dft(c, g, inverse=False):
        return _dft(c.reshape(grid.shape + (m,)), g, inverse).reshape(n, m)

    path, rows = kernel_path(phase, sym, grid)
    fft_rows = path in ("fft", "warped_rows")
    xs, es = grid.space_points(), grid.freq_points()
    sep = sym.separable
    a, b = (sep[0](xs)[:, None], sep[1](es)[:, None]) if sep is not None else (1.0, 1.0)
    if adjoint:
        c = np.conj(a) * cols
        if fft_rows:
            cw = c[rows]
            c[rows] = 0.0
            out = dft(c, grid)
        else:
            cw, out = c, np.zeros((n, m), dtype=complex)
    else:
        c = dft(cols, grid) * b
        out = dft(c, gd, inverse=True) if fft_rows else np.zeros((n, m), dtype=complex)
    if len(rows):
        if adjoint:
            act = _active_columns(cw)
            R, C, coef = rows[act], np.arange(n), cw[act] * grid.space_step ** grid.dim
        else:
            act = _active_columns(c)
            R, C, coef = rows, act, c[act] * grid.freq_step ** grid.dim
        c = cw = None  # free the full columns: only coef enters the sum
        if sep is not None and (phase.warp_x is not None or phase.warp_eta is not None):
            sign = -1.0 if adjoint else 1.0
            if phase.warp_x is not None:
                s, axis, step, lin = phase.warp_x(xs[R]), grid.freq_axis(), grid.freq_step, C
            else:
                s, axis, step, lin = phase.warp_eta(es[C]), grid.space_axis(), grid.space_step, R
            nonuniform_out = (phase.warp_x is not None) != adjoint
            res = _table_sum(sign * s, axis, step, coef, lin if nonuniform_out else None)
            if adjoint:
                out += res
            else:
                out[R] = res
        else:
            build = _block_builder(phase, sym, grid, R, C)
            for lo in range(0, len(R), DEFAULT_CHUNK):
                K = build(slice(lo, lo + DEFAULT_CHUNK))
                if adjoint:
                    out += np.conj(K.T @ np.conj(coef[lo:lo + DEFAULT_CHUNK]))
                else:
                    out[R[lo:lo + DEFAULT_CHUNK]] = K @ coef
    out = dft(np.conj(b) * out, gd, inverse=True) if adjoint else a * out
    return out.reshape(vals.shape)


def _weyl_sum(p: Callable[[Array, Array], Array], grid: GridSpec, vals: Array) -> Array:
    """Weyl quantization of the symbol p(x, eta) by the dense midpoint double
    sum (small grids only), on flat columns (size,) or (size, m): one row per x."""
    if grid.size > 512:
        raise ValueError("dense Weyl quantization is limited to N^d <= 512")
    xs = grid.space_points()
    E = grid.freq_points()[:, None, :]                    # (Ne, 1, d)
    cols = vals.reshape(grid.size, -1)
    out = np.empty(cols.shape, dtype=complex)
    for i, x in enumerate(xs):
        mid = (x[None, None, :] + xs[None, :, :]) / 2.0  # (1, Ny, d)
        ker = np.exp(2j * np.pi * np.sum((x[None, None, :] - xs[None, :, :]) * E, axis=-1))
        out[i] = np.sum(ker * p(mid, E), axis=0) @ cols
    return (out * (grid.space_step * grid.freq_step) ** grid.dim).reshape(vals.shape)


def _aliasing_guard(phase: PhaseSpec, sym: SymbolSpec, f: Signal) -> None:
    """Warn when the stationary output frequency grad_x Phi exceeds 0.95 x
    Nyquist on the amplitude-active part (above 1e-10 of the peak) of
    (supp sigma) x (active input columns)."""
    grid = f.grid
    fhat = fourier_transform(f).samples.ravel()
    act = _active_columns(fhat)
    es = grid.freq_points()[act]
    if len(es) == 0:
        return
    n_x = min(grid.size, 64)
    step = max(1, grid.size // n_x)
    xs = grid.space_points()[::step]
    X = xs[:, None, :]
    E = es[None, :, :]
    w = np.abs(fhat[act])[None, :] * np.abs(sym(X, E))
    mask = w > 1e-10 * (w.max() if w.max() > 0 else 1.0)
    if not np.any(mask):
        return
    gx = np.abs(np.asarray(phase.grad_x(X, E)))
    worst = float(np.max(np.where(mask[..., None], gx, 0.0)))
    if worst > 0.95 * grid.nyquist:
        warnings.warn(
            f"stationary output frequency {worst:.1f} exceeds 0.95 x Nyquist "
            f"({grid.nyquist:.1f}) on the active set",
            TruncationAliasingWarning,
        )


@dataclass
class OperatorHandle:
    """A quantized operator on grid, and the one surface that applies it:
    apply_columns (A or A*), and apply, its guarded Signal entry point.

    kind is one of pseudo_kn, pseudo_weyl, fio_type1, fio_type2, checked at
    construction.  FIO kinds require a phase passing the non-degeneracy and
    growth validators on the grid's box (coarsely sampled at construction).
    """

    kind: str
    symbol: SymbolSpec
    phase: Optional[PhaseSpec]
    grid: GridSpec

    def __post_init__(self):
        if self.kind not in ("pseudo_kn", "pseudo_weyl", "fio_type1", "fio_type2"):
            raise ValueError(f"unknown kind {self.kind}")
        if self.kind in ("fio_type1", "fio_type2"):
            if self.phase is None:
                raise ValueError("FIO kinds require a phase")
            box = Box.for_grid(self.grid)
            nd = nondeg_validate(self.phase, box, samples=17)
            gw = growth_validate(self.phase, box, samples=17)
            if not (nd.passed and gw.passed):
                raise ValueError(
                    f"phase fails validation: delta_min={nd.delta_min:.3g}, "
                    f"growth ratios=({gw.min_ratio_x:.3g}, {gw.min_ratio_eta:.3g})"
                )

    def apply_columns(self, vals: Array, adjoint: bool = False) -> Array:
        """A, or A* with adjoint=True, on flat sample columns (size,) or
        (size, m) on grid, exact on the grid: fio_type1 and fio_type2 are each
        other's adjoint, and pseudo_weyl's is the Weyl sum of conj(symbol)."""
        if self.kind == "pseudo_weyl":
            p = self.symbol
            return _weyl_sum((lambda x, eta: np.conj(p(x, eta))) if adjoint else p,
                             self.grid, vals)
        phase = None if self.kind == "pseudo_kn" else self.phase
        return _kernel_apply(phase, self.symbol, self.grid, vals,
                             adjoint=adjoint != (self.kind == "fio_type2"))

    def _on_grid(self, what: str, grid: GridSpec) -> None:
        """Raise ValueError unless grid, the grid of `what`, is the operator's."""
        if grid != self.grid:
            raise ValueError(f"{what} is on {grid}, not on the operator's grid {self.grid}")

    def apply(self, f: Signal) -> Signal:
        """The operator on f, a signal on grid; a type I FIO first runs
        _aliasing_guard."""
        self._on_grid("the signal", f.grid)
        if self.kind == "fio_type1":
            _aliasing_guard(self.phase, self.symbol, f)
        return Signal(f.grid, self.apply_columns(f.samples.ravel()))


def apply_fio1(phase: PhaseSpec, sym: SymbolSpec, f: Signal) -> Signal:
    """The guarded type I FIO on f.  Kept only because the benchmark
    tracer's ENTRY_POINTS wraps it by name; use OperatorHandle."""
    return OperatorHandle("fio_type1", sym, phase, f.grid).apply(f)


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------

def adjoint_identity_check(phase: PhaseSpec, sym: SymbolSpec,
                           corpus: Sequence[tuple[Signal, Signal]]) -> float:
    """max |<Af, g> - <f, A*g>| / (||f|| ||g||) over (f, g) pairs, A the
    type I operator of (phase, sym) and A* its adjoint, the type II one."""
    worst = 0.0
    for f, g in corpus:
        op = OperatorHandle("fio_type1", sym, phase, f.grid)
        lhs = inner_product(Signal(f.grid, op.apply_columns(f.samples.ravel())), g)
        rhs = inner_product(f, Signal(g.grid, op.apply_columns(g.samples.ravel(), adjoint=True)))
        den = lp_norm(f, 2) * lp_norm(g, 2)
        worst = max(worst, abs(lhs - rhs) / den)
    return worst


def transpose_identity_check(phase: PhaseSpec, sym: SymbolSpec,
                             corpus: Sequence[tuple[Signal, Signal]]) -> float:
    """Transpose against the bilinear pairing: tA = F o A_{tPhi, tsigma} o F^{-1}.

    Residual is |<Af, g>_bil - <f, tA g>_bil| / (||f|| ||g||), with
    <u, v>_bil = sum u v dx^d (no conjugation).
    """
    tp, ts = _transposed_phase(phase), _transposed_symbol(sym)
    worst = 0.0
    for f, g in corpus:
        dx = f.grid.space_step ** f.grid.dim
        Af = OperatorHandle("fio_type1", sym, phase, f.grid).apply_columns(f.samples.ravel())
        lhs = np.sum(Af.reshape(f.grid.shape) * g.samples) * dx
        gi = inverse_fourier(g)
        tA = OperatorHandle("fio_type1", ts, tp, gi.grid)
        tAg = fourier_transform(Signal(gi.grid, tA.apply_columns(gi.samples.ravel())))
        rhs = np.sum(f.samples * tAg.samples) * dx
        den = lp_norm(f, 2) * lp_norm(g, 2)
        worst = max(worst, abs(lhs - rhs) / den)
    return worst


def fourier_conjugation_check(phase: PhaseSpec, sym: SymbolSpec,
                              corpus: Sequence[Signal]) -> float:
    """Relative residual of B_{-tPhi, sigma*} = F^{-1} o A_{Phi,sigma} o F^{-1}.

    Comparing the two quantization definitions gives (B_{-tPhi,sigma*} f)^ =
    A_{Phi,sigma}(F^{-1} f) exactly; the often-quoted F A F^{-1} form differs
    from it by a parity (check Phi = x.eta, sigma = 1, where B is parity and
    F A F^{-1} is the identity).
    """
    bp = _negated_phase(_transposed_phase(phase))
    bs = _starred_symbol(sym)
    worst = 0.0
    for f in corpus:
        lhs = OperatorHandle("fio_type2", bs, bp, f.grid).apply_columns(f.samples.ravel())
        fi = inverse_fourier(f)
        A = OperatorHandle("fio_type1", sym, phase, fi.grid)
        rhs = inverse_fourier(Signal(fi.grid, A.apply_columns(fi.samples.ravel())))
        worst = max(worst, lp_norm(Signal(f.grid, lhs - rhs.samples.ravel()), 2)
                    / lp_norm(f, 2))
    return worst


def dilation_conjugation_check(
    full_sym: SymbolSpec,
    phase: PhaseSpec,
    j: int,
    k: int,
    corpus: Sequence[Signal],
) -> float:
    """A_{j,k} = U_lam o A~_{j,k} o U_{1/lam} with lam = 2^{(j-k)/2}.

    Needs generator-backed signals so the inner dilation is analytic; j - k
    must be even so the outer dilation re-indexes the grid exactly.
    """
    if (j - k) % 2 != 0:
        raise ValueError("j - k must be even for grid-exact outer dilation")
    lam = 2.0 ** ((j - k) // 2)
    piece = dyadic_piece(full_sym, j, k)
    s_t, p_t = conjugated_piece(piece, phase, j, k)
    worst = 0.0
    for f in corpus:
        direct = OperatorHandle("fio_type1", piece, phase, f.grid).apply_columns(
            f.samples.ravel())
        inner = dilate(f, 1.0 / lam)
        mid = OperatorHandle("fio_type1", s_t, p_t, inner.grid).apply_columns(
            inner.samples.ravel())
        conj = dilate(Signal(inner.grid, mid), lam)
        num = lp_norm(Signal(f.grid, direct - conj.samples.ravel()), 2)
        worst = max(worst, num / lp_norm(f, 2))
    return worst


# ---------------------------------------------------------------------------
# Composition at leading order
# ---------------------------------------------------------------------------

def leading_symbol(p: SymbolSpec, phase: PhaseSpec, sigma: SymbolSpec) -> SymbolSpec:
    """First term of the composition expansion: p(x, grad_x Phi(x,eta)) sigma."""
    def fn(x, eta):
        gx = np.asarray(phase.grad_x(x, eta), dtype=float)
        return p(x, gx) * sigma(x, eta)

    return SymbolSpec(order=(p.order[0] + sigma.order[0], p.order[1] + sigma.order[1]),
                      fn=fn)


def compose_leading(
    p: SymbolSpec,
    phase: PhaseSpec,
    sigma: SymbolSpec,
    js: Sequence[int],
    grid: GridSpec,
) -> list[tuple[int, float]]:
    """Residual curve r_j = ||p(x,D) A f_j - S0 f_j||_2 / ||f_j||_2.

    f_j carries the unit band profile psi_j centred at x = 0.45, so every
    dyadic band is probed with full strength.
    """
    A = OperatorHandle("fio_type1", sigma, phase, grid)
    P = OperatorHandle("pseudo_kn", p, None, grid)
    S0 = OperatorHandle("fio_type1", leading_symbol(p, phase, sigma), phase, grid)
    eta = grid.freq_points()
    out = []
    for j in js:
        prof = psi_j(j, eta).reshape(grid.shape)
        mod = np.exp(-2j * np.pi * 0.45 * np.sum(eta, axis=-1)).reshape(grid.shape)
        fj = inverse_fourier(Signal(dual_grid(grid), prof * mod)).samples.ravel()
        res = P.apply_columns(A.apply_columns(fj)) - S0.apply_columns(fj)
        r = lp_norm(Signal(grid, res), 2) / lp_norm(Signal(grid, fj), 2)
        out.append((int(j), float(r)))
    return out


def residuals_decay(curve: Sequence[tuple[int, float]], factor: float = 1.5) -> bool:
    vals = [r for _, r in curve]
    return all(vals[i] / vals[i + 1] >= factor for i in range(len(vals) - 1))


# ---------------------------------------------------------------------------
# Gabor matrices
# ---------------------------------------------------------------------------

@dataclass
class GaborMatrix:
    """entries[i', i] = <Op g_i, g_i'> over the flattened lattice index list.

    k_phys / n_phys hold the physical lattice positions (alpha*k, beta*n) of
    each flattened index, shape (num_atoms, d).
    """

    entries: Array
    k_phys: Array
    n_phys: Array
    lattice: GaborLattice

    @property
    def num_atoms(self) -> int:
        return self.entries.shape[0]


def _atom_table(g: Window, lat: GaborLattice) -> tuple[Array, Array, Array]:
    """All lattice atoms as rows, k-major, plus their physical positions."""
    d = g.grid.dim
    kt = np.asarray(lat.k_tuples(), dtype=float).reshape(-1, d)
    nt = np.asarray(lat.n_tuples(), dtype=float).reshape(-1, d)
    kp = np.repeat(lat.alpha * kt, len(nt), axis=0)
    npos = np.tile(lat.beta * nt, (len(kt), 1))
    return _atom_rows(g, lat), kp, npos


class DenseSizeError(ValueError):
    """A Gabor matrix, or the sample matrix of a dense L^2 norm, whose
    arrays would exceed DENSE_BYTES."""


def _check_dense_bytes(n_bytes: int, what: str, parts: str) -> None:
    """Raise DenseSizeError when n_bytes exceeds DENSE_BYTES."""
    if n_bytes > DENSE_BYTES:
        raise DenseSizeError(
            f"{what} needs {n_bytes / 2 ** 30:.1f} GiB for {parts}, over the "
            f"{DENSE_BYTES / 2 ** 30:.0f} GiB limit (DENSE_BYTES)")


def _row_blocks(M: GaborMatrix):
    """Row slices of M.entries in order, each of whole k' rows (the nn rows
    k_flat * nn ... k_flat * nn + nn - 1 of one k'): as many k' rows as fit
    in ROW_BLOCK_BYTES of entries, and at least one."""
    nn = len(M.lattice.n_index) ** M.lattice.grid.dim
    row_bytes = nn * M.num_atoms * M.entries.itemsize
    step = nn * max(1, ROW_BLOCK_BYTES // row_bytes)
    for lo in range(0, M.num_atoms, step):
        yield slice(lo, min(lo + step, M.num_atoms))


def gabor_matrix(op: OperatorHandle, g: Window, lat: GaborLattice) -> GaborMatrix:
    """Assemble <Op g_{k,n}, g_{k',n'}>: all atoms go through the operator as
    the columns of one application, and the rows come from the Walnut-fiber
    fold of the output columns (gabor._folded_analysis), for any lattice.
    Entries below ZERO_FLOOR times the peak modulus are set to 0.

    Raises ValueError when the window or the lattice is not on op.grid, and
    DenseSizeError, before allocating anything, when the atom table, the
    operator outputs and the entries together exceed DENSE_BYTES."""
    op._on_grid("the window", g.grid)
    op._on_grid("the lattice", lat.grid)
    gr = g.grid
    _check_dense_bytes(16 * lat.num_atoms * (2 * gr.size + lat.num_atoms),
                       f"a Gabor matrix of {lat.num_atoms} atoms on {gr.size} grid points",
                       "its atoms, outputs and entries")
    atoms, kp, npos = _atom_table(g, lat)
    outs = op.apply_columns(atoms.T)
    atoms = None  # only the outputs enter the fold
    M = GaborMatrix(entries=_folded_analysis(outs, g, lat), k_phys=kp, n_phys=npos,
                    lattice=lat)
    outs = None
    peak = np.max([np.abs(M.entries[rows]).max() for rows in _row_blocks(M)])
    if peak > 0:
        for rows in _row_blocks(M):
            block = M.entries[rows]
            block[np.abs(block) < ZERO_FLOOR * peak] = 0.0
    return M


@dataclass
class DecayReport:
    constant: float
    worst: tuple[int, int]


def _lattice_tables(M: GaborMatrix) -> tuple[Array, Array]:
    """The k and n lattice positions of M, one row per k tuple and per n
    tuple (the flattened index is k-major: k_flat * nn + n_flat)."""
    nn = len(M.lattice.n_index) ** M.lattice.grid.dim
    return M.k_phys[::nn], M.n_phys[:nn]


def _pair_brackets(z: Array) -> Array:
    """<z_i - z_j> over all pairs (i, j) of the rows of z."""
    return bracket(z[:, None, :] - z[None, :, :])


def _block_ratios(block: Array, envelope: Array) -> Array:
    """|block| / envelope for a row block of entries and its (k', n', k, n)
    envelope, which is overwritten by the ratios."""
    return np.divide(np.abs(block).reshape(envelope.shape), envelope, out=envelope)


def diag_decay_certify(M: GaborMatrix, m1: float, m2: float,
                       N1: int = 1, N2: int = 1) -> DecayReport:
    """Smallest C with |entry| <= C <n>^{m1} <k'>^{m2} <n-n'>^{-2N1} <k-k'>^{-2N2}.

    The envelope of each row block (_row_blocks) is built on a (k', n', k, n)
    view from the (k', k) and (n', n) bracket tables, in the multiplication
    order of the dense form (<k'>^{m2} <n>^{m1}) (<n-n'>^{-2N1} <k-k'>^{-2N2}).
    The worst index is the first largest ratio in row-major order, or the
    first NaN, as np.argmax over all ratios gives it."""
    kt, nt = _lattice_tables(M)
    nn = len(nt)
    dn = _pair_brackets(nt) ** (-2 * N1)
    dk = _pair_brackets(kt) ** (-2 * N2)
    outer = np.multiply.outer(bracket(kt) ** m2, bracket(nt) ** m1)
    peaks, where = [], []
    for rows in _row_blocks(M):
        ks = slice(rows.start // nn, rows.stop // nn)
        envelope = np.multiply(dn[None, :, None, :], dk[ks, None, :, None])
        envelope *= outer[ks, None, None, :]
        ratios = _block_ratios(M.entries[rows], envelope)
        i = int(np.argmax(ratios))
        peaks.append(ratios.ravel()[i])
        where.append(rows.start * M.num_atoms + i)
    b = int(np.argmax(peaks))
    return DecayReport(constant=float(peaks[b]),
                       worst=(where[b] // M.num_atoms, where[b] % M.num_atoms))


@dataclass
class SchurReport:
    """The four mixed sums of Prop.-style generalized Schur tests.

    sup_row/sup_col are the plain l^infty l^1 sums; mixed_a is
    sup_n sum_{n'} sup_{k'} sum_k and mixed_b the index-swapped partner.
    All four finite (and stable under lattice enlargement) certifies
    l^{p,q} boundedness of the matrix for every p, q.
    """

    sup_row: float
    sup_col: float
    mixed_a: float
    mixed_b: float

    @property
    def all_finite(self) -> bool:
        return all(np.isfinite(v) for v in (self.sup_row, self.sup_col,
                                            self.mixed_a, self.mixed_b))

    @property
    def worst(self) -> float:
        return max(self.sup_row, self.sup_col, self.mixed_a, self.mixed_b)


def schur_certify(M: GaborMatrix) -> SchurReport:
    """The four Schur sums of |entries|, walking the row blocks of
    _row_blocks.  The two that run over the row axis, the column sums and
    the sum over k' of mixed_b, add one row, or one k' row, at a time in row
    order, as the dense reductions do, so all four sums are those of the
    num_atoms^2 form bit for bit."""
    nk = len(M.lattice.k_index) ** M.lattice.grid.dim
    nn = len(M.lattice.n_index) ** M.lattice.grid.dim
    row_sums, col, sup_k, sum_k = [], None, None, None
    for rows in _row_blocks(M):
        a = np.abs(M.entries[rows])
        row_sums.append(np.sum(a, axis=1))
        for r in a:
            col = r.copy() if col is None else np.add(col, r, out=col)
        # flattened order is k-major: index = k_flat * nn + n_flat
        b = a.reshape(-1, nn, nk, nn)
        inner = np.max(np.sum(b, axis=2), axis=0)    # sum over k, sup over k' -> (n', n)
        sup_k = inner if sup_k is None else np.maximum(sup_k, inner)
        for r in b:                                  # sum over k' -> (n', k, n)
            sum_k = r.copy() if sum_k is None else np.add(sum_k, r, out=sum_k)
    sup_row = float(np.max(np.concatenate(row_sums)))
    sup_col = float(np.max(col))
    # sup over n of sum over n' of sup over k' of sum over k
    mixed_a = float(np.max(np.sum(sup_k, axis=0)))
    # sup over n' of sum over n of sup over k of sum over k'
    mixed_b = float(np.max(np.sum(np.max(sum_k, axis=1), axis=1)))
    return SchurReport(sup_row=sup_row, sup_col=sup_col,
                       mixed_a=mixed_a, mixed_b=mixed_b)


# ---------------------------------------------------------------------------
# Operator norms
# ---------------------------------------------------------------------------

@dataclass
class OpNormReport:
    """value is the L^2 norm.  Every route is exact and runs no iteration, so
    iterations is 0 and converged True; only the benchmark's convergence
    checks read them."""

    value: float
    iterations: int
    converged: bool


def _dirichlet(t: Array, gr: GridSpec) -> Array:
    """sum_eta exp(2 pi i t.eta) over the frequency grid, without its unit
    factor exp(-pi i deta sum_a t_a), for offsets t of shape (..., d): the
    product over the axes of sin(pi t / dx) / sin(pi t deta).

    Each axis's sum over eta = k deta, k = -N/2 .. N/2 - 1, is
    exp(-pi i t deta) sin(pi t / dx) / sin(pi t deta).  It has the period
    2L = 1 / deta, so t is first reduced by m = round(t deta) periods to r,
    which with N even gives the real factor (-1)^m; where sin(pi r deta) is
    0 (r = 0) the factor is its limit N."""
    n = gr.samples_per_axis
    m = np.round(t * gr.freq_step)
    r = t - m * (2.0 * gr.half_width)
    den = np.sin(np.pi * gr.freq_step * r)
    out = np.divide(np.sin(np.pi / gr.space_step * r), den,
                    out=np.full(r.shape, float(n)), where=den != 0)
    out[m % 2 != 0] *= -1.0
    return np.prod(out, axis=-1)


def _exact_l2_norm(op: OperatorHandle) -> Optional[float]:
    """||A|| on L^2 without iterating, or None where it does not apply.

    It applies to pseudo_kn, fio_type1 and fio_type2 (whose norm is its
    type I operator's) on the "fft" and "warped_rows" paths when a(x) and
    b(eta) are constant on the grid, and when the warped rows are at most a
    quarter of the grid.  The 2w x 2w eigenvalue problem then has at most
    size / 2 rows (2048 at N = 4096, d = 1), half the dense route's size.

    The sample matrix is then gamma K U / sqrt(size) up to a unit factor,
    with gamma = |a b|, K = exp(2 pi i Phi) on the grid and U unitary.  The
    plain rows of K / sqrt(size) are orthonormal DFT rows, so A A* =
    gamma^2 I outside a space of at most 2w dimensions, a rank-2w update of
    a scaled identity (Golub, SIAM Rev. 15, 1973).  With K_w and P_w the
    phase kernel and the plain x.eta kernel on the w warped rows,
    D = gamma^2 K_w K_w* / size, X = K_w P_w* / size and
    G = C* C = gamma^2 (D - gamma^2 X X*), where C is the plain-by-warped
    block of A A*, ||A||^2 is the top eigenvalue of
    [[gamma^2 I, G^1/2], [G^1/2, D]].  With no warped row the norm is gamma.

    Phi = psi(x).eta is linear in eta, so each entry of D and X is a sum of
    exp(2 pi i t.eta) over the frequency grid, which has a closed form
    (_dirichlet): D_ij = gamma^2 / size times it at t = s_i - s_j, and
    X_ij = 1 / size times it at t = s_i - x_j, with s = psi(x) on the warped
    rows.  No kernel block is built.  The unit factor of an entry,
    exp(-pi i deta sum_a t_a), is l_i conj(l'_j), with l = exp(-pi i deta
    sum_a s_a) and l' the same of s for D and of x for X.  So D = L D_r L*
    and X X* = L X_r X_r^T L* with L = diag(l) and D_r, X_r real.  This
    diagonal unitary similarity carries over to G, G^1/2 and the block
    matrix, and it leaves their eigenvalues alone, so both eigenvalue
    problems run on real symmetric matrices.

    Where ||A|| is gamma itself and G = 0, as when the warp moves rows by
    whole periods 2L, G is a difference of two matrices near gamma^4 I, and
    G^1/2 turns its rounding, about w eps gamma^4, into about sqrt(w eps)
    gamma^2: the norm would keep only half its digits (1.8e-8 relative on
    such a band of 32 rows at N = 256).  Just above gamma the relative
    error is still about eps gamma^2 / (||A||^2 - gamma^2): moving that
    band by 1e-9 periods gives ||A|| = 1 + 3.4e-7 with an error of 3.5e-10.
    So when the top eigenvalue lies within eps^(1/5) gamma^2 (7.4e-4) of
    gamma^2, which bounds that error by about eps^(4/5) (3e-13), G is summed
    as C^T C over the plain rows instead, from the same closed form
    (C_pj = gamma^2 / size times it at t = x_p - s_j), which costs
    size x w entries.  c15's operators, with ||A||^2 / gamma^2 - 1 near
    1.09, never take that sum.
    """
    if op.kind not in ("pseudo_kn", "fio_type1", "fio_type2"):
        return None
    gr, sym = op.grid, op.symbol
    phase = None if op.kind == "pseudo_kn" else op.phase
    path, rows = kernel_path(phase, sym, gr)
    if path not in ("fft", "warped_rows") or 4 * len(rows) > gr.size:
        return None
    a, b = sym.separable[0](gr.space_points()), sym.separable[1](gr.freq_points())
    if np.any(a != a.flat[0]) or np.any(b != b.flat[0]):
        return None
    g2 = float(abs(a.flat[0] * b.flat[0])) ** 2
    w, n = len(rows), gr.size
    if w == 0:
        return float(np.sqrt(g2))
    xs = gr.space_points()
    x = xs[rows]
    s = phase.warp_x(x)
    D = _dirichlet(s[:, None] - s[None, :], gr) * (g2 / n)

    def top(G):
        mu, V = np.linalg.eigh(G)
        half = (V * np.sqrt(np.clip(mu, 0.0, None))) @ V.T
        return np.linalg.eigvalsh(np.block([[g2 * np.eye(w), half], [half, D]]))[-1]

    X = _dirichlet(s[:, None] - x[None, :], gr) / n
    lam = top(g2 * (D - g2 * (X @ X.T)))
    if lam - g2 <= np.finfo(float).eps ** 0.2 * g2:
        # G's rounding, about w eps gamma^4, is a large part of it: sum
        # C^T C over the plain rows instead, w of them at a time
        plain = np.delete(xs, rows, axis=0)
        G = np.zeros((w, w))
        for i in range(0, len(plain), w):
            C = _dirichlet(plain[i:i + w, None] - s[None, :], gr) * (g2 / n)
            G += C.T @ C
        lam = top(G)
    return float(np.sqrt(lam))


def _dense_l2_norm(op: OperatorHandle) -> float:
    """||A|| on L^2 as the square root of the top eigenvalue of A*A, A the
    size x size sample matrix op.apply_columns(I).  Raises
    DenseSizeError before allocating anything when A, A*A and their
    temporaries, counted as 5 x size^2 x 16 B, exceed DENSE_BYTES."""
    gr = op.grid
    _check_dense_bytes(5 * 16 * gr.size ** 2,
                       f"the dense L^2 norm on {gr.size} grid points",
                       "its sample matrix and A*A")
    A = op.apply_columns(np.eye(gr.size, dtype=complex))
    top = np.linalg.eigvalsh(A.conj().T @ A)[-1]
    return float(np.sqrt(max(top, 0.0)))


def op_norm_estimate(op: OperatorHandle, p: float = 2.0, method: str = "power_iter_l2",
                     seed: int = 3) -> OpNormReport:
    """The L^2 norm of op, exact to rounding.

    Where _exact_l2_norm applies (constant separable symbol, no warp or a
    declared warp_x moving at most a quarter of the rows, as for criterion
    c15's fio_type1 with phase_xphi and symbol one) it comes from the warped
    rows alone; every other operator takes _dense_l2_norm, which refuses a
    grid past DENSE_BYTES.  p must be 2 and method "power_iter_l2", the
    benchmark's name for this norm; seed is accepted and not read, since no
    route draws a start vector.
    """
    if method != "power_iter_l2":
        raise ValueError(f"unknown method {method}")
    if p != 2.0:
        raise ValueError("op_norm_estimate certifies the L^2 norm only")
    exact = _exact_l2_norm(op)
    value = exact if exact is not None else _dense_l2_norm(op)
    return OpNormReport(value=value, iterations=0, converged=True)
