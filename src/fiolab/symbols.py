"""Evaluable symbols and phases with order metadata, their validators, and
the symbols and phases derived from them.

Symbols sigma(x, eta) and phases Phi(x, eta) take point arrays whose last
axis is the dimension d and broadcast freely.  Validators test the product
estimates

    |d^alpha_eta d^beta_x sigma| <= C <eta>^{m1-|alpha|} <x>^{m2-|beta|}

with centred 4th-order finite-difference stencils, the mixed-Hessian
non-degeneracy floor, and the gradient growth conditions
<grad_x Phi> >~ <eta>, <grad_eta Phi> >~ <x>.

Each registry symbol and phase is declared once: a separable symbol by its
factors alone, the model symbols <eta>^m1 <x>^m2 (one, eta_power and
x_power among them) by _sym_model_sg, and phase_phix as the transpose of
phase_xphi.  The derived phases and symbols of the structural identities
(transpose, negation, sigma*) and of the dyadic decomposition (pieces and
their dilation conjugates) live here too.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Optional

import numpy as np

from .grid import Array, GridSpec, bracket, bump, plateau

# ---------------------------------------------------------------------------
# Derivatives of the bump cutoff (the cutoffs themselves live in grid)
# ---------------------------------------------------------------------------

def bump_d1(u: Array) -> Array:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    um = u[m]
    q = 1.0 - um * um
    out[m] = np.exp(-1.0 / q) * (-2.0 * um / (q * q))
    return out


# ---------------------------------------------------------------------------
# Symbol and phase records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling box in (x, eta)."""

    x_lo: tuple[float, ...]
    x_hi: tuple[float, ...]
    eta_lo: tuple[float, ...]
    eta_hi: tuple[float, ...]

    @classmethod
    def cube(cls, dim: int, x_max: float, eta_max: float) -> "Box":
        return cls(
            x_lo=(-x_max,) * dim, x_hi=(x_max,) * dim,
            eta_lo=(-eta_max,) * dim, eta_hi=(eta_max,) * dim,
        )

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "Box":
        return cls.cube(grid.dim, grid.half_width, grid.nyquist)

    @property
    def dim(self) -> int:
        return len(self.x_lo)


@dataclass
class SymbolSpec:
    """sigma(x, eta) with declared order (m1, m2).

    A product symbol declares only separable = (a, b), sigma = a(x) b(eta),
    and fn is then set to that product; operators take their fast paths
    from the factors.  Any other symbol gives fn.  One of the two is
    required.  fn is stored, so dataclasses.replace(sym, separable=None)
    keeps sigma and drops only the fast paths: the dense reference.
    """

    order: tuple[float, float]
    fn: Optional[Callable[[Array, Array], Array]] = None
    support_hint: Optional[Box] = None
    separable: Optional[tuple[Callable[[Array], Array], Callable[[Array], Array]]] = None

    def __post_init__(self):
        if self.fn is None:
            if self.separable is None:
                raise ValueError("SymbolSpec needs fn or separable")
            a, b = self.separable
            self.fn = lambda x, eta: a(x) * b(eta)

    def __call__(self, x: Array, eta: Array) -> Array:
        return np.asarray(self.fn(x, eta))


@dataclass
class PhaseSpec:
    """Real phase Phi(x, eta) of order (1,1) with analytic first derivatives.

    warp_x, when given, declares Phi(x, eta) = sum_i psi(x_i) eta_i with
    psi = warp_x applied per coordinate.  Grid rows with psi(x) == x in every
    coordinate are then rows of the plain Fourier kernel, and operators take
    them from the FFT.  warp_eta, when given, declares Phi(x, eta) =
    sum_i x_i chi(eta_i) with chi = warp_eta per coordinate.  Either
    declaration makes Phi linear on one side, and operators build its kernel
    blocks from two short exponential tables per axis on that side's uniform
    grid instead of one exp per entry.  Phases that declare neither
    (hand-built ones, dilation conjugates) are evaluated through fn on every
    entry.  _transposed_phase swaps the two declarations, so a phase and its
    transpose are one declaration (phase_phix is phase_xphi transposed).
    """

    fn: Callable[[Array, Array], Array]
    grad_x: Callable[[Array, Array], Array]
    grad_eta: Callable[[Array, Array], Array]
    mixed_hessian: Callable[[Array, Array], Array]
    warp_x: Optional[Callable[[Array], Array]] = None
    warp_eta: Optional[Callable[[Array], Array]] = None


# ---------------------------------------------------------------------------
# Finite-difference validators
# ---------------------------------------------------------------------------

# centred stencils, 4th-order accurate, orders 0..3
_STENCILS = {
    0: (np.array([1.0]), np.array([0])),
    1: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, np.arange(-2, 3)),
    2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, np.arange(-2, 3)),
    3: (np.array([-1.0, 8.0, -13.0, 0.0, 13.0, -8.0, 1.0]) / 8.0, np.arange(-3, 4)),
}


def _axis_points(lo, hi, n):
    return [np.linspace(l, h, n) for l, h in zip(lo, hi)]


def _sample_points(box: Box, n: int) -> tuple[Array, Array]:
    xs = _axis_points(box.x_lo, box.x_hi, n)
    es = _axis_points(box.eta_lo, box.eta_hi, n)
    grids = np.meshgrid(*xs, *es, indexing="ij")
    d = box.dim
    X = np.stack([g.ravel() for g in grids[:d]], axis=-1)
    E = np.stack([g.ravel() for g in grids[d:]], axis=-1)
    return X, E


def fd_mixed_derivative(
    fn: Callable[[Array, Array], Array],
    X: Array,
    E: Array,
    alpha: tuple[int, ...],
    beta: tuple[int, ...],
    h_eta: float,
    h_x: float,
) -> Array:
    """d^alpha_eta d^beta_x fn at points (X, E) by tensor-product stencils."""
    axes = []
    for ax, o in enumerate(beta):
        if o > 0:
            w, offs = _STENCILS[o]
            axes.append(("x", ax, w / h_x ** o, offs))
    for ax, o in enumerate(alpha):
        if o > 0:
            w, offs = _STENCILS[o]
            axes.append(("eta", ax, w / h_eta ** o, offs))
    if not axes:
        return np.asarray(fn(X, E))
    acc = np.zeros(X.shape[0], dtype=complex)
    for combo in iproduct(*[range(len(a[3])) for a in axes]):
        Xs = X.copy()
        Es = E.copy()
        coef = 1.0
        for (kind, ax, w, offs), ci in zip(axes, combo):
            step = offs[ci]
            coef *= w[ci]
            if kind == "x":
                Xs[:, ax] = Xs[:, ax] + step * h_x
            else:
                Es[:, ax] = Es[:, ax] + step * h_eta
        acc = acc + coef * np.asarray(fn(Xs, Es))
    return acc


def _multi_indices(dim: int, total_max: int):
    """All multi-indices with |.| <= total_max."""
    return [combo for combo in iproduct(range(total_max + 1), repeat=dim)
            if sum(combo) <= total_max]


@dataclass
class SGReport:
    constant: float
    worst_orders: tuple
    passed: bool


def sg_validate(sym: SymbolSpec, box: Optional[Box] = None) -> SGReport:
    """Smallest C making all stencil estimates hold, for every derivative
    order |alpha|, |beta| up to 3, on 13 points per axis of the sample box,
    with stencil steps of 1/64 of its widest x and eta sides; passed when
    C <= 1e4."""
    if box is None:
        box = sym.support_hint or Box.cube(1, 8.0, 8.0)
    d = box.dim
    h_x = max((hi - lo) for lo, hi in zip(box.x_lo, box.x_hi)) / 64.0
    h_eta = max((hi - lo) for lo, hi in zip(box.eta_lo, box.eta_hi)) / 64.0
    X, E = _sample_points(box, 13)
    m1, m2 = sym.order
    bx = bracket(X)
    be = bracket(E)
    best = 0.0
    worst_ord = None
    for alpha in _multi_indices(d, 3):
        for beta in _multi_indices(d, 3):
            der = fd_mixed_derivative(sym.fn, X, E, alpha, beta, h_eta, h_x)
            if not np.all(np.isfinite(der)):
                raise ValueError(f"non-finite evaluation for orders {(alpha, beta)}")
            envelope = be ** (m1 - sum(alpha)) * bx ** (m2 - sum(beta))
            c = float(np.max(np.abs(der) / envelope))
            if c > best:
                best = c
                worst_ord = (alpha, beta)
    return SGReport(constant=best, worst_orders=worst_ord, passed=bool(best <= 1e4))


@dataclass
class NondegReport:
    delta_min: float
    passed: bool


def nondeg_validate(phase: PhaseSpec, box: Box, samples: int = 33) -> NondegReport:
    """min |det d2Phi/dx deta| over the sample box against the floor 1e-3."""
    X, E = _sample_points(box, samples)
    H = np.asarray(phase.mixed_hessian(X, E), dtype=float)
    d = box.dim
    H = H.reshape(-1, d, d)
    delta = float(np.min(np.abs(np.linalg.det(H))))
    return NondegReport(delta_min=delta, passed=bool(delta > 1e-3))


@dataclass
class GrowthReport:
    min_ratio_x: float
    min_ratio_eta: float
    passed: bool


def growth_validate(phase: PhaseSpec, box: Box, samples: int = 33) -> GrowthReport:
    """<grad_x Phi>/<eta> and <grad_eta Phi>/<x> floors over the box, each
    against 0.05."""
    X, E = _sample_points(box, samples)
    gx = bracket(np.asarray(phase.grad_x(X, E), dtype=float))
    ge = bracket(np.asarray(phase.grad_eta(X, E), dtype=float))
    r1 = float(np.min(gx / bracket(E)))
    r2 = float(np.min(ge / bracket(X)))
    return GrowthReport(min_ratio_x=r1, min_ratio_eta=r2,
                        passed=bool(r1 >= 0.05 and r2 >= 0.05))


# ---------------------------------------------------------------------------
# Littlewood-Paley partition of unity
# ---------------------------------------------------------------------------

def psi0(r: Array) -> Array:
    """The low-frequency cutoff: 1 on |r| <= 1, 0 from |r| = 2."""
    return plateau(r, 1.0, 2.0)


def psi(r: Array) -> Array:
    """The dyadic annulus psi0(r) - psi0(2r), supported in 1/2 <= |r| <= 2."""
    return psi0(r) - psi0(2.0 * np.asarray(r, dtype=float))


def psi_j(j: int, v: Array) -> Array:
    """psi_j on vectors v of shape (..., d), radially: psi0 for j = 0 and
    psi(2^{-j} .) after, so psi_0 + sum_{j >= 1} psi_j = 1."""
    r = np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))
    if j == 0:
        return psi0(r)
    return psi(2.0 ** (-j) * r)


# ---------------------------------------------------------------------------
# Derived symbols and phases: dyadic pieces, dilation conjugates, and the
# transpose, negation and sigma* of the structural identities
# ---------------------------------------------------------------------------

def dyadic_piece(sym: SymbolSpec, j: int, k: int) -> SymbolSpec:
    """sigma_{j,k}(x, eta) = psi_k(x) sigma(x, eta) psi_j(eta)."""
    def fn(x, eta):
        return psi_j(k, x) * sym(x, eta) * psi_j(j, eta)

    d = 1 if sym.support_hint is None else sym.support_hint.dim
    xr = 2.0 ** (k + 1) if k > 0 else 2.0
    er = 2.0 ** (j + 1) if j > 0 else 2.0
    return SymbolSpec(order=sym.order, fn=fn, support_hint=Box.cube(d, xr, er))


def conjugated_piece(
    sym_jk: SymbolSpec, phase: PhaseSpec, j: int, k: int
) -> tuple[SymbolSpec, PhaseSpec]:
    """Dilation conjugates: arguments rescaled by lam = 2^{(j-k)/2}.

    sigma~(x, eta) = sigma_{j,k}(x/lam, lam*eta) and the phase likewise;
    the mixed Hessian is evaluated at the rescaled arguments with no extra
    factor (the two Jacobians cancel), so its determinant floor is preserved.
    """
    lam = 2.0 ** ((j - k) / 2.0)

    def sfn(x, eta):
        return sym_jk(x / lam, lam * np.asarray(eta))

    hint = sym_jk.support_hint
    new_hint = None
    if hint is not None:
        new_hint = Box(
            x_lo=tuple(v * lam for v in hint.x_lo),
            x_hi=tuple(v * lam for v in hint.x_hi),
            eta_lo=tuple(v / lam for v in hint.eta_lo),
            eta_hi=tuple(v / lam for v in hint.eta_hi),
        )
    s_new = SymbolSpec(order=sym_jk.order, fn=sfn, support_hint=new_hint)
    p_new = PhaseSpec(
        fn=lambda x, eta: phase.fn(x / lam, lam * np.asarray(eta)),
        grad_x=lambda x, eta: np.asarray(phase.grad_x(x / lam, lam * np.asarray(eta))) / lam,
        grad_eta=lambda x, eta: np.asarray(phase.grad_eta(x / lam, lam * np.asarray(eta))) * lam,
        mixed_hessian=lambda x, eta: phase.mixed_hessian(x / lam, lam * np.asarray(eta)),
    )
    return s_new, p_new


def _transposed_phase(phase: PhaseSpec) -> PhaseSpec:
    """Phi(eta, x); psi(x).eta becomes x.psi(eta), so the warps swap sides."""
    return PhaseSpec(
        fn=lambda x, eta: phase.fn(eta, x),
        grad_x=lambda x, eta: np.asarray(phase.grad_eta(eta, x)),
        grad_eta=lambda x, eta: np.asarray(phase.grad_x(eta, x)),
        mixed_hessian=lambda x, eta: np.swapaxes(
            np.asarray(phase.mixed_hessian(eta, x)), -1, -2),
        warp_x=phase.warp_eta,
        warp_eta=phase.warp_x,
    )


def _transposed_symbol(sym: SymbolSpec) -> SymbolSpec:
    """sigma(eta, x); a(x) b(eta) becomes b(x) a(eta)."""
    sep = sym.separable
    return SymbolSpec(
        order=(sym.order[1], sym.order[0]), fn=lambda x, eta: sym(eta, x),
        separable=None if sep is None else (sep[1], sep[0]),
    )


def _negated_phase(phase: PhaseSpec) -> PhaseSpec:
    """-Phi; a declared warp is negated with it."""
    def neg(warp):
        return None if warp is None else (lambda v: -np.asarray(warp(v)))

    return PhaseSpec(
        fn=lambda x, eta: -np.asarray(phase.fn(x, eta)),
        grad_x=lambda x, eta: -np.asarray(phase.grad_x(x, eta)),
        grad_eta=lambda x, eta: -np.asarray(phase.grad_eta(x, eta)),
        mixed_hessian=lambda x, eta: -np.asarray(phase.mixed_hessian(x, eta)),
        warp_x=neg(phase.warp_x),
        warp_eta=neg(phase.warp_eta),
    )


def _starred_symbol(sym: SymbolSpec) -> SymbolSpec:
    """conj(sigma(eta, x)); a(x) b(eta) becomes conj(b(x)) conj(a(eta))."""
    sep = sym.separable
    return SymbolSpec(
        order=(sym.order[1], sym.order[0]), fn=lambda x, eta: np.conj(sym(eta, x)),
        separable=None if sep is None else (lambda x: np.conj(sep[1](x)),
                                            lambda eta: np.conj(sep[0](eta))),
    )


# ---------------------------------------------------------------------------
# Diffeomorphism library
# ---------------------------------------------------------------------------

class MonotonicityError(ValueError):
    pass


@dataclass(frozen=True)
class Diffeo:
    """phi(t) = t + c * s(t) with s a compactly supported bump in (0, 1)."""

    c: float
    center: float
    half_width: float

    def _u(self, t: Array) -> Array:
        return (np.asarray(t, dtype=float) - self.center) / self.half_width

    def phi(self, t: Array) -> Array:
        return np.asarray(t, dtype=float) + self.c * bump(self._u(t))

    def dphi(self, t: Array) -> Array:
        return 1.0 + self.c * bump_d1(self._u(t)) / self.half_width


def make_diffeo(c: float = 0.3) -> Diffeo:
    """Diffeomorphism equal to the identity outside (0, 1), nonlinear inside:
    the bump is centred at 0.5 with half-width 0.45.

    Rejects c large enough to break monotonicity (|c| sup|s'| must be < 1).
    """
    hw = 0.45
    uu = np.linspace(-1.0, 1.0, 20001)
    sup = float(np.max(np.abs(bump_d1(uu)))) / hw
    if abs(c) * sup >= 1.0:
        raise MonotonicityError(
            f"|c| * sup|s'| = {abs(c) * sup:.3f} >= 1; phi would fold"
        )
    return Diffeo(c=float(c), center=0.5, half_width=hw)


# ---------------------------------------------------------------------------
# Registry addressable by name(args) strings
# ---------------------------------------------------------------------------

def _sym_model_sg(m1: float, m2: float) -> SymbolSpec:
    """The model symbol <eta>^m1 <x>^m2."""
    return SymbolSpec(order=(m1, m2),
                      separable=(lambda x: bracket(x) ** m2, lambda eta: bracket(eta) ** m1))


def _sym_x_power_freq_cutoff(m: float, inner: float = 1.0, outer: float = 2.0) -> SymbolSpec:
    """<x>^m G(eta) with G = 1 on |eta| <= inner, 0 beyond outer."""
    def gpart(eta):
        r = np.sqrt(np.sum(np.asarray(eta, dtype=float) ** 2, axis=-1))
        return plateau(r, inner, outer)

    # compact eta support makes this SG^{m1, m} for every m1; order records
    # the weakest useful claim and the cutoff carries the rest
    return SymbolSpec(order=(0.0, m), separable=(lambda x: bracket(x) ** m, gpart))


def _sym_x_cutoff_eta_power(m: float, center: float = 0.5,
                            inner: float = 0.9, outer: float = 1.4) -> SymbolSpec:
    """G0(x) <eta>^m with G0 = 1 on a box covering [0,1]^d, compact support."""
    def gpart(x):
        r = np.max(np.abs(np.asarray(x, dtype=float) - center), axis=-1)
        return plateau(r, inner, outer)

    return SymbolSpec(order=(m, 0.0), separable=(gpart, lambda eta: bracket(eta) ** m))


def dot(u: Array, v: Array) -> Array:
    """sum_i u_i v_i over the last axis, broadcasting the others, without
    forming the product array (kernel phases are evaluated on large blocks)."""
    return np.einsum("...i,...i->...", np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _phase_xphi(c: float = 0.3) -> PhaseSpec:
    """Phi(x, eta) = sum_i phi(x_i) eta_i (linear in eta, warped in x)."""
    dif = make_diffeo(c)
    def hess(x, eta):
        x = np.asarray(x, dtype=float)
        eta = np.asarray(eta, dtype=float)
        d = x.shape[-1]
        shp = np.broadcast(x[..., 0], eta[..., 0]).shape
        out = np.zeros(shp + (d, d))
        dp = dif.dphi(x)
        for i in range(d):
            out[..., i, i] = np.broadcast_to(dp[..., i], shp)
        return out

    return PhaseSpec(
        fn=lambda x, eta: dot(dif.phi(x), eta),
        grad_x=lambda x, eta: dif.dphi(x) * np.asarray(eta, dtype=float),
        grad_eta=lambda x, eta: dif.phi(x) * np.ones_like(np.asarray(eta, dtype=float)),
        mixed_hessian=hess,
        warp_x=dif.phi,
    )


def _phase_phix(c: float = 0.3) -> PhaseSpec:
    """Phi(x, eta) = sum_i x_i phi(eta_i) (linear in x, warped in eta): the
    transpose of phase_xphi(c)."""
    return _transposed_phase(_phase_xphi(c))


def _phase_linear() -> PhaseSpec:
    return _phase_xphi(0.0)


SYMBOL_BUILDERS = {
    "one": lambda: _sym_model_sg(0.0, 0.0),
    "model_sg": _sym_model_sg,
    "eta_power": lambda m: _sym_model_sg(m, 0.0),
    "x_power": lambda m: _sym_model_sg(0.0, m),
    "x_power_freq_cutoff": _sym_x_power_freq_cutoff,
    "x_cutoff_eta_power": _sym_x_cutoff_eta_power,
}

PHASE_BUILDERS = {
    "phase_xphi": _phase_xphi,
    "phase_phix": _phase_phix,
    "phase_linear": _phase_linear,
}


def _parse_call(spec: str) -> tuple[str, list[float]]:
    spec = spec.strip()
    if "(" not in spec:
        return spec, []
    if not spec.endswith(")"):
        raise ValueError(f"malformed registry name {spec!r}")
    name, rest = spec.split("(", 1)
    args = rest[:-1].strip()
    vals = [float(a) for a in args.split(",")] if args else []
    return name.strip(), vals


def _from_name(spec: str, builders: dict, what: str):
    """builders[name](*args) for spec "name" or "name(a, ...)": KeyError for
    an unknown name, ValueError for arguments the builder does not take."""
    name, args = _parse_call(spec)
    if name not in builders:
        raise KeyError(f"unknown {what} {name!r}; have {sorted(builders)}")
    try:
        inspect.signature(builders[name]).bind(*args)
    except TypeError as e:
        raise ValueError(f"{what} {spec.strip()!r}: {e}") from None
    return builders[name](*args)


def symbol_from_name(spec: str) -> SymbolSpec:
    return _from_name(spec, SYMBOL_BUILDERS, "symbol")


def phase_from_name(spec: str) -> PhaseSpec:
    return _from_name(spec, PHASE_BUILDERS, "phase")
