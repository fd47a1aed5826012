"""Uniform truncated grids on [-L,L]^d and the discrete signal calculus.

Conventions baked into everything downstream:

* space nodes  x_m = -L + m*dx,  m = 0..N-1 per axis, dx = 2L/N
* frequency nodes  eta_k = k*deta,  k = -N/2..N/2-1 per axis, deta = 1/(2L)
* Fourier transform  fhat(eta) = integral f(t) exp(-2*pi*i*t*eta) dt,
  discretised as the dx^d-scaled DFT with the (-1)^k phase that accounts
  for the -L grid offset (exact, not an approximation of the phase).

The duality dx*deta*N = 1 makes the discrete transform unitary between the
dx-weighted and deta-weighted inner products, so Parseval holds to rounding.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class GridAlignmentError(ValueError):
    """Requested shift/lattice parameter does not sit on the grid."""


class TruncationAliasingWarning(UserWarning):
    """Significant signal mass at the box boundary or the Nyquist edge."""


@dataclass(frozen=True)
class GridSpec:
    """Truncated uniform grid on [-L, L]^d with an even number of samples."""

    dim: int
    half_width: float
    samples_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        n = self.samples_per_axis
        if n <= 0 or n % 2 != 0:
            raise ValueError("samples_per_axis must be even and positive")

    @property
    def space_step(self) -> float:
        return 2.0 * self.half_width / self.samples_per_axis

    @property
    def freq_step(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def nyquist(self) -> float:
        # largest resolved |eta| (one-sided band edge)
        return self.samples_per_axis * self.freq_step / 2.0

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.samples_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.samples_per_axis ** self.dim

    def space_axis(self) -> Array:
        n = self.samples_per_axis
        return -self.half_width + self.space_step * np.arange(n)

    def freq_axis(self) -> Array:
        n = self.samples_per_axis
        return self.freq_step * np.arange(-n // 2, n // 2)

    def space_mesh(self) -> tuple[Array, ...]:
        ax = self.space_axis()
        return tuple(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def freq_mesh(self) -> tuple[Array, ...]:
        ax = self.freq_axis()
        return tuple(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def space_points(self) -> Array:
        """All nodes as an array of shape (N^d, d)."""
        return np.stack([m.ravel() for m in self.space_mesh()], axis=-1)

    def freq_points(self) -> Array:
        return np.stack([m.ravel() for m in self.freq_mesh()], axis=-1)

    def offsets_for(self, x0) -> tuple[int, ...]:
        """Integer per-axis sample offsets for a grid-aligned translation
        (within 1e-9 of a sample)."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have {self.dim} components")
        offs = x0 / self.space_step
        rounded = np.round(offs)
        if np.max(np.abs(offs - rounded)) > 1e-9:
            raise GridAlignmentError(
                f"translation {x0} is not an integer multiple of dx={self.space_step}"
            )
        return tuple(int(r) for r in rounded)


@lru_cache(maxsize=32)
def _alternating_phase(n: int, dim: int) -> Array:
    """prod_i (-1)^{k_i} on the centred frequency index box, exact +-1."""
    k = np.arange(-n // 2, n // 2)
    one = ((-1.0) ** (np.abs(k) % 2)).astype(float)
    out = one
    for _ in range(dim - 1):
        out = np.multiply.outer(out, one)
    return out


# ---------------------------------------------------------------------------
# Smooth cutoff building blocks (exact plateaus via the exp(-1/u) glue)
# ---------------------------------------------------------------------------

def smooth_step(u: Array) -> Array:
    """C^inf step: exactly 0 for u <= 0, exactly 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    hi = u >= 1.0
    mid = (u > 0.0) & ~hi
    out[hi] = 1.0
    um = u[mid]
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


def plateau(r: Array, inner: float = 1.0, outer: float = 2.0) -> Array:
    """Radial cutoff: 1 for |r| <= inner, 0 for |r| >= outer, smooth glue."""
    return smooth_step((outer - np.abs(r)) / (outer - inner))


def bump(u: Array) -> Array:
    """exp(-1/(1-u^2)) on |u| < 1, exactly zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    um = u[m]
    out[m] = np.exp(-1.0 / (1.0 - um * um))
    return out


@dataclass(frozen=True)
class Generator:
    """Analytic evaluation rule behind a Signal.

    fn takes d coordinate arrays (broadcastable) and returns complex values.
    Dilations, translations and compositions re-evaluate the rule instead of
    interpolating samples.
    """

    fn: Callable[..., Array]

    def __call__(self, *coords: Array) -> Array:
        return np.asarray(self.fn(*coords), dtype=complex)

    def translated(self, x0) -> "Generator":
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        base = self
        return Generator(lambda *cs: base(*[c - s for c, s in zip(cs, x0)]))

    def modulated(self, eta0) -> "Generator":
        eta0 = np.atleast_1d(np.asarray(eta0, dtype=float))
        base = self
        return Generator(lambda *cs: np.exp(
            2j * np.pi * sum(e * c for e, c in zip(eta0, cs))) * base(*cs))

    def dilated(self, lam: float) -> "Generator":
        lam = float(lam)
        base = self
        return Generator(lambda *cs: base(*[lam * c for c in cs]))

    def composed(self, maps: tuple[Callable[[Array], Array], ...]) -> "Generator":
        """Coordinate-wise substitution t_i -> maps[i](t_i)."""
        base = self
        return Generator(lambda *cs: base(*[m(c) for m, c in zip(maps, cs)]))


def gaussian_generator(width: float = 1.0) -> Generator:
    """exp(-pi |t|^2 / width^2) in any number of coordinates; Fourier-invariant
    when width = 1."""
    w2 = float(width) ** 2
    return Generator(lambda *cs: np.exp(-np.pi * sum(np.asarray(c) ** 2 for c in cs) / w2) + 0j)


def bump_generator(center: float = 0.5, half_width: float = 0.42) -> Generator:
    """Smooth compactly supported bump, exactly zero outside the box of
    half-width half_width about center in every coordinate."""
    c, hw = float(center), float(half_width)
    return Generator(lambda *cs: np.prod(
        [bump((np.asarray(t) - c) / hw) for t in cs], axis=0) + 0j)


@dataclass
class Signal:
    """Complex samples on a GridSpec, optionally backed by a Generator."""

    grid: GridSpec
    samples: Array
    generator: Optional[Generator] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != self.grid.shape:
            if self.samples.size == self.grid.size:
                self.samples = self.samples.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"samples shape {self.samples.shape} does not match grid {self.grid.shape}"
                )

    @classmethod
    def from_generator(cls, grid: GridSpec, gen: Generator) -> "Signal":
        vals = gen(*grid.space_mesh())
        return cls(grid=grid, samples=vals, generator=gen)

    def copy(self) -> "Signal":
        return Signal(self.grid, self.samples.copy(), self.generator)


@dataclass(frozen=True)
class WeightSpec:
    """Product weight <x>^{s2} <eta>^{s1}; index order follows symbol orders."""

    s1: float = 0.0  # frequency exponent
    s2: float = 0.0  # space exponent


def bracket(z: Array) -> Array:
    """Japanese bracket <z> = (1 + |z|^2)^{1/2}, |.| over the last axis."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(1.0 + np.sum(z * z, axis=-1))


# ---------------------------------------------------------------------------
# Fourier transform pair
# ---------------------------------------------------------------------------

_DUAL_CACHE: dict = {}


def dual_grid(g: GridSpec) -> GridSpec:
    """The frequency-side grid: half width = Nyquist band, same N.

    Fourier images live on the dual grid, so norms, translations and
    weights of transformed signals automatically use the frequency measure.
    The pairing is cached both ways, making the involution exact (no float
    drift on dual(dual(g))).  Grids with N = 4 L^2 are self-dual.
    """
    got = _DUAL_CACHE.get(g)
    if got is None:
        got = GridSpec(g.dim, g.samples_per_axis * g.freq_step / 2.0,
                       g.samples_per_axis)
        _DUAL_CACHE[g] = got
        _DUAL_CACHE.setdefault(got, g)
    return got


def _dft(vals: Array, g: GridSpec, inverse: bool = False) -> Array:
    """The transform pair over the leading d axes of vals; trailing axes are a
    batch.  g is the grid vals live on: the space grid for the forward
    transform, the frequency-side grid for the inverse."""
    axes = tuple(range(g.dim))
    n = g.samples_per_axis
    ph = _alternating_phase(n, g.dim).reshape(g.shape + (1,) * (vals.ndim - g.dim))
    if inverse:
        return np.fft.ifftn(np.fft.ifftshift(vals * ph, axes=axes), axes=axes) \
            * (n * g.space_step) ** g.dim
    return np.fft.fftshift(np.fft.fftn(vals, axes=axes), axes=axes) * ph * g.space_step ** g.dim


def fourier_transform(f: Signal) -> Signal:
    """fhat on the centred frequency grid; exact quadrature of the node sum."""
    return Signal(dual_grid(f.grid), _dft(f.samples, f.grid))


def inverse_fourier(F: Signal) -> Signal:
    """Inverse of fourier_transform; input lives on the frequency-side grid."""
    return Signal(dual_grid(F.grid), _dft(F.samples, F.grid, inverse=True))


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def _zero_fill_shift(vals: Array, offsets: Sequence[int]) -> Array:
    """vals moved by offsets[i] samples along axis i, out[t] = vals[t - s],
    with zeros where t - s leaves the array; later axes are left alone."""
    out = np.zeros_like(vals)
    dst, src = [], []
    for s, n in zip(offsets, vals.shape):
        s = max(-n, min(n, int(s)))
        dst.append(slice(max(s, 0), n + min(s, 0)))
        src.append(slice(max(-s, 0), n - max(s, 0)))
    out[tuple(dst)] = vals[tuple(src)]
    return out


def translate(f: Signal, x0) -> Signal:
    """T_{x0} f(t) = f(t - x0), zero fill at the boundary; x0 grid-aligned."""
    out = _zero_fill_shift(f.samples, f.grid.offsets_for(x0))
    gen = f.generator.translated(x0) if f.generator is not None else None
    return Signal(f.grid, out, gen)


def modulate(f: Signal, eta0) -> Signal:
    """M_{eta0} f(t) = exp(2*pi*i*eta0.t) f(t); eta0 unrestricted."""
    eta0 = np.atleast_1d(np.asarray(eta0, dtype=float))
    if eta0.shape != (f.grid.dim,):
        raise ValueError(f"eta0 must have {f.grid.dim} components")
    mesh = f.grid.space_mesh()
    phase = np.exp(2j * np.pi * sum(e * m for e, m in zip(eta0, mesh)))
    gen = f.generator.modulated(eta0) if f.generator is not None else None
    return Signal(f.grid, f.samples * phase, gen)


def _edge_mass_ratio(vals: Array, axis: Array, cutoff: float) -> float:
    """Share of sum |vals|^2 on the nodes with some coordinate |axis| > cutoff;
    vals has one dimension per grid axis, each sampled at `axis`."""
    edge = np.abs(axis) > cutoff
    mask = np.zeros(vals.shape, dtype=bool)
    for d in range(vals.ndim):
        sl = [None] * vals.ndim
        sl[d] = slice(None)
        mask |= edge[tuple(sl)]
    tot = float(np.sum(np.abs(vals) ** 2))
    if tot == 0.0:
        return 0.0
    return float(np.sum(np.abs(vals[mask]) ** 2)) / tot


def dilate(f: Signal, lam: float) -> Signal:
    """U_lam f(x) = f(lam x).

    Generator-backed signals are re-evaluated analytically (no interpolation
    error).  Sample-only signals support integer lam by re-indexing and, for
    d = 1, arbitrary lam > 0 through band-limited trigonometric resampling.
    Emits TruncationAliasingWarning when the result carries more than
    1e-8 of its mass near the box boundary or the Nyquist edge.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    g = f.grid
    if f.generator is not None:
        out = Signal.from_generator(g, f.generator.dilated(lam))
    elif lam == 1.0:
        out = f.copy()
    elif abs(lam - round(lam)) < 1e-12:
        m = int(round(lam))
        n = g.samples_per_axis
        idx = m * (np.arange(n) - n // 2) + n // 2
        valid = (idx >= 0) & (idx < n)
        vals = f.samples
        for ax in range(g.dim):
            take = np.where(valid, np.clip(idx, 0, n - 1), 0)
            vals = np.take(vals, take, axis=ax)
            shape = [1] * g.dim
            shape[ax] = n
            vals = vals * valid.reshape(shape)
        out = Signal(g, vals)
    elif g.dim == 1:
        fhat = fourier_transform(f)
        pts = lam * g.space_axis()
        kernel = np.exp(2j * np.pi * np.multiply.outer(pts, g.freq_axis()))
        vals = kernel @ (fhat.samples * g.freq_step)
        inside = np.abs(pts) <= g.half_width
        vals = np.where(inside, vals, 0.0)
        out = Signal(g, vals)
    else:
        raise NotImplementedError(
            "non-integer dilation of sample-only signals is implemented for d=1"
        )
    br = _edge_mass_ratio(out.samples, g.space_axis(), 0.9 * g.half_width)
    if br > 1e-8:
        warnings.warn(
            f"dilate(lam={lam}): boundary mass ratio {br:.2e} exceeds 1e-08",
            TruncationAliasingWarning,
        )
    fr = _edge_mass_ratio(fourier_transform(out).samples, g.freq_axis(), 0.95 * g.nyquist)
    if fr > 1e-8:
        warnings.warn(
            f"dilate(lam={lam}): Nyquist-edge mass ratio {fr:.2e} exceeds 1e-08",
            TruncationAliasingWarning,
        )
    return out


def lp_norm(f: Signal, p: float) -> float:
    """Riemann-sum L^p norm, sup norm for p = inf."""
    a = np.abs(f.samples)
    if np.isinf(p):
        return float(a.max())
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    dx = f.grid.space_step ** f.grid.dim
    return float((np.sum(a ** p) * dx) ** (1.0 / p))


def inner_product(f: Signal, g: Signal) -> complex:
    """<f, g> = sum f conj(g) dx^d (sesquilinear, conjugate on the right)."""
    if f.grid != g.grid:
        raise ValueError("signals live on different grids")
    dx = f.grid.space_step ** f.grid.dim
    return complex(np.vdot(g.samples, f.samples) * dx)


def random_schwartz_signal(grid: GridSpec, rng: np.random.Generator) -> Signal:
    """Random well-concentrated test signal (Gaussian envelope, mild chirp)."""
    L = grid.half_width
    mesh = grid.space_mesh()
    width = float(rng.uniform(0.5, 1.5)) * min(1.0, L / 8.0) + 0.2 * min(1.0, L / 8.0)
    center = rng.uniform(-L / 8.0, L / 8.0, size=grid.dim)
    freq = rng.uniform(-grid.nyquist / 8.0, grid.nyquist / 8.0, size=grid.dim)
    r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    phase = sum(2j * np.pi * fq * m for fq, m in zip(freq, mesh))
    amp = rng.normal() + 1j * rng.normal()
    poly = 1.0 + 0.5 * rng.normal() * sum(m - c for m, c in zip(mesh, center))
    return Signal(grid, amp * poly * np.exp(-np.pi * r2 / width ** 2 + phase))


def default_grid(dim: int = 1) -> GridSpec:
    """Desk-scale defaults: d=1 -> L=16, N=1024; d=2 -> L=8, N=128."""
    if dim == 1:
        return GridSpec(1, 16.0, 1024)
    if dim == 2:
        return GridSpec(2, 8.0, 128)
    raise ValueError("only d in {1,2} has a bundled default")
