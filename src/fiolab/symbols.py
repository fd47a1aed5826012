"""Evaluable symbols and phases with order metadata, and their validators.

Symbols sigma(x, eta) and phases Phi(x, eta) take point arrays whose last
axis is the dimension d and broadcast freely.  Validators test the product
estimates

    |d^alpha_eta d^beta_x sigma| <= C <eta>^{m1-|alpha|} <x>^{m2-|beta|}

with centred 4th-order finite-difference stencils, the mixed-Hessian
non-degeneracy floor, and the gradient growth conditions
<grad_x Phi> >~ <eta>, <grad_eta Phi> >~ <x>.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    """sigma(x, eta) with declared order (m1, m2) and optional fast paths."""

    name: str
    order: tuple[float, float]
    fn: Callable[[Array, Array], Array]
    params: dict = field(default_factory=dict)
    support_hint: Optional[Box] = None
    derivative_budget: int = 3
    separable: Optional[tuple[Callable[[Array], Array], Callable[[Array], Array]]] = None

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
    entry.
    """

    name: str
    fn: Callable[[Array, Array], Array]
    grad_x: Callable[[Array, Array], Array]
    grad_eta: Callable[[Array, Array], Array]
    mixed_hessian: Callable[[Array, Array], Array]
    params: dict = field(default_factory=dict)
    warp_x: Optional[Callable[[Array], Array]] = None
    warp_eta: Optional[Callable[[Array], Array]] = None

    def __call__(self, x: Array, eta: Array) -> Array:
        return np.asarray(self.fn(x, eta), dtype=float)


# ---------------------------------------------------------------------------
# Finite-difference validators
# ---------------------------------------------------------------------------

# centred stencils, 4th-order accurate, orders 0..4
_STENCILS = {
    0: (np.array([1.0]), np.array([0])),
    1: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, np.arange(-2, 3)),
    2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, np.arange(-2, 3)),
    3: (np.array([-1.0, 8.0, -13.0, 0.0, 13.0, -8.0, 1.0]) / 8.0, np.arange(-3, 4)),
    4: (np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0, np.arange(-3, 4)),
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
    """All multi-indices with every component <= 4 and |.| <= total_max."""
    out = []
    for combo in iproduct(range(0, min(total_max, 4) + 1), repeat=dim):
        if 0 < sum(combo) <= total_max or sum(combo) == 0:
            out.append(combo)
    return out


@dataclass
class SGReport:
    constant: float
    worst_point: tuple
    worst_orders: tuple
    per_order: dict
    passed: bool


def sg_validate(sym: SymbolSpec, box: Optional[Box] = None) -> SGReport:
    """Smallest C making all stencil estimates hold, for every derivative
    order up to sym.derivative_budget, on 13 points per axis of the sample
    box, with stencil steps of 1/64 of its widest x and eta sides; passed
    when C <= 1e4."""
    if box is None:
        box = sym.support_hint or Box.cube(1, 8.0, 8.0)
    R = sym.derivative_budget
    if R > 4:
        raise ValueError("derivative budget limited to 4")
    d = box.dim
    h_x = max((hi - lo) for lo, hi in zip(box.x_lo, box.x_hi)) / 64.0
    h_eta = max((hi - lo) for lo, hi in zip(box.eta_lo, box.eta_hi)) / 64.0
    X, E = _sample_points(box, 13)
    m1, m2 = sym.order
    bx = bracket(X)
    be = bracket(E)
    best = 0.0
    worst_pt = None
    worst_ord = None
    per_order = {}
    for alpha in _multi_indices(d, R):
        for beta in _multi_indices(d, R):
            der = fd_mixed_derivative(sym.fn, X, E, alpha, beta, h_eta, h_x)
            if not np.all(np.isfinite(der)):
                raise ValueError(f"non-finite evaluation for orders {(alpha, beta)}")
            envelope = be ** (m1 - sum(alpha)) * bx ** (m2 - sum(beta))
            ratios = np.abs(der) / envelope
            i = int(np.argmax(ratios))
            c = float(ratios[i])
            per_order[(alpha, beta)] = c
            if c > best:
                best = c
                worst_pt = (tuple(X[i]), tuple(E[i]))
                worst_ord = (alpha, beta)
    return SGReport(constant=best, worst_point=worst_pt, worst_orders=worst_ord,
                    per_order=per_order, passed=bool(best <= 1e4))


@dataclass
class NondegReport:
    delta_min: float
    worst_point: tuple
    passed: bool


def nondeg_validate(phase: PhaseSpec, box: Box, samples: int = 33) -> NondegReport:
    """min |det d2Phi/dx deta| over the sample box against the floor 1e-3."""
    X, E = _sample_points(box, samples)
    H = np.asarray(phase.mixed_hessian(X, E), dtype=float)
    d = box.dim
    H = H.reshape(-1, d, d)
    dets = np.abs(np.linalg.det(H))
    i = int(np.argmin(dets))
    return NondegReport(delta_min=float(dets[i]),
                        worst_point=(tuple(X[i]), tuple(E[i])),
                        passed=bool(dets[i] > 1e-3))


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
# Littlewood-Paley family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPFamily:
    """Dyadic partition of unity psi_0 + sum_j psi(2^{-j} .) on |eta| <= 2^jmax."""

    j_max: int

    @staticmethod
    def psi0(r: Array) -> Array:
        return plateau(r, 1.0, 2.0)

    @staticmethod
    def psi(r: Array) -> Array:
        return LPFamily.psi0(r) - LPFamily.psi0(2.0 * np.asarray(r, dtype=float))

    def psi_j(self, j: int, v: Array) -> Array:
        """psi_j evaluated on vectors v of shape (..., d), radially."""
        r = np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))
        if j == 0:
            return self.psi0(r)
        return self.psi(2.0 ** (-j) * r)

# ---------------------------------------------------------------------------
# Dyadic symbol pieces and dilation conjugates
# ---------------------------------------------------------------------------

def dyadic_piece(sym: SymbolSpec, j: int, k: int, fam: LPFamily) -> SymbolSpec:
    """sigma_{j,k}(x, eta) = psi_k(x) sigma(x, eta) psi_j(eta)."""
    def fn(x, eta):
        return fam.psi_j(k, x) * sym(x, eta) * fam.psi_j(j, eta)

    d = 1 if sym.support_hint is None else sym.support_hint.dim
    xr = 2.0 ** (k + 1) if k > 0 else 2.0
    er = 2.0 ** (j + 1) if j > 0 else 2.0
    return SymbolSpec(
        name=f"{sym.name}_piece", order=sym.order, fn=fn,
        params={**sym.params, "j": j, "k": k},
        support_hint=Box.cube(d, xr, er),
        derivative_budget=sym.derivative_budget,
    )


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
    s_new = SymbolSpec(
        name=f"{sym_jk.name}_conj", order=sym_jk.order, fn=sfn,
        params={**sym_jk.params, "lam": lam}, support_hint=new_hint,
        derivative_budget=sym_jk.derivative_budget,
    )
    p_new = PhaseSpec(
        name=f"{phase.name}_conj",
        fn=lambda x, eta: phase.fn(x / lam, lam * np.asarray(eta)),
        grad_x=lambda x, eta: np.asarray(phase.grad_x(x / lam, lam * np.asarray(eta))) / lam,
        grad_eta=lambda x, eta: np.asarray(phase.grad_eta(x / lam, lam * np.asarray(eta))) * lam,
        mixed_hessian=lambda x, eta: phase.mixed_hessian(x / lam, lam * np.asarray(eta)),
        params={**phase.params, "j": j, "k": k, "lam": lam},
    )
    return s_new, p_new


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

def _sym_one() -> SymbolSpec:
    return SymbolSpec(
        name="one", order=(0.0, 0.0),
        fn=lambda x, eta: np.ones(np.broadcast(
            np.asarray(x)[..., 0], np.asarray(eta)[..., 0]).shape, dtype=float),
        separable=(lambda x: np.ones(np.asarray(x).shape[:-1]),
                   lambda eta: np.ones(np.asarray(eta).shape[:-1])),
    )


def _sym_model_sg(m1: float, m2: float) -> SymbolSpec:
    return SymbolSpec(
        name="model_sg", order=(m1, m2),
        fn=lambda x, eta: bracket(eta) ** m1 * bracket(x) ** m2,
        params={"m1": m1, "m2": m2},
        separable=(lambda x: bracket(x) ** m2, lambda eta: bracket(eta) ** m1),
    )


def _sym_eta_power(m: float) -> SymbolSpec:
    return SymbolSpec(
        name="eta_power", order=(m, 0.0),
        fn=lambda x, eta: bracket(eta) ** m * np.ones(np.asarray(x).shape[:-1]),
        params={"m": m},
        separable=(lambda x: np.ones(np.asarray(x).shape[:-1]),
                   lambda eta: bracket(eta) ** m),
    )


def _sym_x_power(m: float) -> SymbolSpec:
    return SymbolSpec(
        name="x_power", order=(0.0, m),
        fn=lambda x, eta: bracket(x) ** m * np.ones(np.asarray(eta).shape[:-1]),
        params={"m": m},
        separable=(lambda x: bracket(x) ** m,
                   lambda eta: np.ones(np.asarray(eta).shape[:-1])),
    )


def _sym_x_power_freq_cutoff(m: float, inner: float = 1.0, outer: float = 2.0) -> SymbolSpec:
    """<x>^m G(eta) with G = 1 on |eta| <= inner, 0 beyond outer."""
    def gpart(eta):
        r = np.sqrt(np.sum(np.asarray(eta, dtype=float) ** 2, axis=-1))
        return plateau(r, inner, outer)

    # compact eta support makes this SG^{m1, m} for every m1; order records
    # the weakest useful claim and the cutoff carries the rest
    return SymbolSpec(
        name="x_power_freq_cutoff", order=(0.0, m),
        fn=lambda x, eta: bracket(x) ** m * gpart(eta),
        params={"m": m, "inner": inner, "outer": outer},
        separable=(lambda x: bracket(x) ** m, gpart),
    )


def _sym_x_cutoff_eta_power(m: float, center: float = 0.5,
                            inner: float = 0.9, outer: float = 1.4) -> SymbolSpec:
    """G0(x) <eta>^m with G0 = 1 on a box covering [0,1]^d, compact support."""
    def gpart(x):
        r = np.max(np.abs(np.asarray(x, dtype=float) - center), axis=-1)
        return plateau(r, inner, outer)

    return SymbolSpec(
        name="x_cutoff_eta_power", order=(m, 0.0),
        fn=lambda x, eta: gpart(x) * bracket(eta) ** m,
        params={"m": m, "center": center, "inner": inner, "outer": outer},
        separable=(gpart, lambda eta: bracket(eta) ** m),
    )


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
        name="phase_xphi",
        fn=lambda x, eta: dot(dif.phi(x), eta),
        grad_x=lambda x, eta: dif.dphi(x) * np.asarray(eta, dtype=float),
        grad_eta=lambda x, eta: dif.phi(x) * np.ones_like(np.asarray(eta, dtype=float)),
        mixed_hessian=hess,
        params={"c": c},
        warp_x=dif.phi,
    )


def _phase_phix(c: float = 0.3) -> PhaseSpec:
    """Phi(x, eta) = sum_i phi(eta_i) x_i (linear in x, warped in eta)."""
    dif = make_diffeo(c)
    def hess(x, eta):
        x = np.asarray(x, dtype=float)
        eta = np.asarray(eta, dtype=float)
        d = eta.shape[-1]
        shp = np.broadcast(x[..., 0], eta[..., 0]).shape
        out = np.zeros(shp + (d, d))
        dp = dif.dphi(eta)
        for i in range(d):
            out[..., i, i] = np.broadcast_to(dp[..., i], shp)
        return out

    return PhaseSpec(
        name="phase_phix",
        fn=lambda x, eta: dot(x, dif.phi(eta)),
        grad_x=lambda x, eta: dif.phi(eta) * np.ones_like(np.asarray(x, dtype=float)),
        grad_eta=lambda x, eta: dif.dphi(eta) * np.asarray(x, dtype=float),
        mixed_hessian=hess,
        params={"c": c},
        warp_eta=dif.phi,
    )


def _phase_linear() -> PhaseSpec:
    return _phase_xphi(0.0)


SYMBOL_BUILDERS = {
    "one": _sym_one,
    "model_sg": _sym_model_sg,
    "eta_power": _sym_eta_power,
    "x_power": _sym_x_power,
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


def symbol_from_name(spec: str) -> SymbolSpec:
    name, args = _parse_call(spec)
    if name not in SYMBOL_BUILDERS:
        raise KeyError(f"unknown symbol {name!r}; have {sorted(SYMBOL_BUILDERS)}")
    return SYMBOL_BUILDERS[name](*args)


def phase_from_name(spec: str) -> PhaseSpec:
    name, args = _parse_call(spec)
    if name not in PHASE_BUILDERS:
        raise KeyError(f"unknown phase {name!r}; have {sorted(PHASE_BUILDERS)}")
    return PHASE_BUILDERS[name](*args)
