import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from itertools import product

from fiolab import gabor
from fiolab.experiments import default_chi, make_fn, sharpness_grid, sharpness_window
from fiolab.gabor import (
    GaborCoeffs,
    GaborLattice,
    StftData,
    NotAFrameError,
    Window,
    dual_window,
    frame_bounds,
    frame_matrix_dense,
    frame_operator,
    gabor_analysis,
    gabor_analysis_direct,
    gabor_atom,
    gabor_synthesis,
    istft,
    stft,
    stft_direct,
    tight_window,
    _atom_rows,
    _tone_table,
    _window_table,
)
from fiolab.grid import (
    GridAlignmentError,
    GridSpec,
    Signal,
    bump_generator,
    gaussian_generator,
    inner_product,
    lp_norm,
    random_schwartz_signal,
    _alternating_phase,
    _zero_fill_shift,
)

from conftest import make_corpus
from test_operators import FOLD_LATTICES


@pytest.fixture(scope="module")
def g256():
    return GridSpec(1, 8.0, 256)


@pytest.fixture(scope="module")
def w256(g256):
    return Window.gaussian(g256)


@pytest.fixture(scope="module")
def lat256(g256, w256):
    return GaborLattice.for_grid(g256, 0.5, 0.5, window=w256)


@pytest.fixture(scope="module")
def dense256(w256, lat256):
    return frame_matrix_dense(w256, lat256)


@pytest.fixture(scope="module")
def dense_bounds(dense256):
    spec = np.linalg.eigvalsh(dense256)
    return float(spec[0]), float(spec[-1])


class TestStft:
    def test_matches_direct_summation(self):
        g = GridSpec(1, 4.0, 64)
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(0))
        fast = stft(f, w).values
        slow = stft_direct(f, w).values
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_gaussian_closed_form(self, g256, w256):
        f = w256.signal  # f = g = L^2-normalised Gaussian
        V = stft(f, w256).values
        x = g256.space_axis()
        eta = g256.freq_axis()
        oracle = np.exp(-np.pi * (x[:, None] ** 2 + eta[None, :] ** 2) / 2.0)
        assert np.max(np.abs(np.abs(V) - oracle)) < 1e-8

    def test_orthogonality(self, g256, w256):
        for f in make_corpus(g256, 6, seed=3):
            V = stft(f, w256)
            nrm = np.sqrt(np.sum(np.abs(V.values) ** 2)
                          * g256.space_step * g256.freq_step)
            target = lp_norm(f, 2) * w256.l2_norm
            assert abs(nrm - target) / target < 1e-8

    def test_covariance_shift(self, g256, w256):
        from fiolab.grid import modulate, translate
        f = Signal.from_generator(g256, gaussian_generator())
        dx, de = g256.space_step, g256.freq_step
        sx, se = 24, 16
        shifted = modulate(translate(f, [sx * dx]), [se * de])
        V0 = np.abs(stft(f, w256).values)
        V1 = np.abs(stft(shifted, w256).values)
        rolled = np.roll(np.roll(V0, sx, axis=0), se, axis=1)
        interior = slice(64, 192)
        assert np.max(np.abs(V1[interior, interior] - rolled[interior, interior])) < 1e-8

    def test_istft_round_trip_gaussian(self, g256, w256):
        f = Signal.from_generator(g256, gaussian_generator())
        rec = istft(stft(f, w256), w256)
        assert lp_norm(Signal(g256, rec.samples - f.samples), 2) / lp_norm(f, 2) < 1e-6

    def test_istft_round_trip_modulated_bump(self):
        # refined-grid quadrature oracle: same reconstruction at double N
        for n_samp in (1024, 2048):
            g = GridSpec(1, 2.0, n_samp)
            w = Window.gaussian(g, width=0.4)
            f = Signal.from_generator(
                g, bump_generator(center=0.5, half_width=0.42).modulated([64.0]))
            rec = istft(stft(f, w), w)
            assert lp_norm(Signal(g, rec.samples - f.samples), 2) / lp_norm(f, 2) < 1e-6

    def test_istft_zero(self, g256, w256):
        V = stft(Signal(g256, np.zeros(256, dtype=complex)), w256)
        rec = istft(V, w256)
        assert np.max(np.abs(rec.samples)) == 0.0

    def test_istft_requires_unit_window(self, g256, w256):
        V = stft(Signal.from_generator(g256, gaussian_generator()), w256)
        bad = Window(signal=w256.signal, l2_norm=2.0)
        with pytest.raises(ValueError):
            istft(V, bad)

    def test_2d_paths(self):
        g = GridSpec(2, 4.0, 16)
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(9))
        fast = stft(f, w).values
        slow = stft_direct(f, w).values
        assert np.max(np.abs(fast - slow)) < 1e-10
        rec = istft(stft(f, w), w)
        assert lp_norm(Signal(g, rec.samples - f.samples), 2) / lp_norm(f, 2) < 1e-6

    def test_2d_mod_norm_parseval(self):
        from fiolab.norms import mod_norm
        g = GridSpec(2, 4.0, 32)
        w = Window.gaussian(g)
        f = Signal.from_generator(g, gaussian_generator(0.8))
        v1 = mod_norm(f, 2, window=w).value
        assert abs(v1 - lp_norm(f, 2)) / lp_norm(f, 2) < 1e-6
        v2 = mod_norm(f, 2, window=w, x_stride=2).value
        assert abs(v2 - lp_norm(f, 2)) / lp_norm(f, 2) < 5e-4


class TestAnalysisSynthesis:
    def test_atom_coefficient(self, g256, w256, lat256):
        atom = gabor_atom(w256, lat256, [4], [-3])
        c = gabor_analysis(atom, w256, lat256)
        ki = lat256.k_index.index(4)
        ni = lat256.n_index.index(-3)
        assert abs(c.values[ki, ni] - 1.0) < 1e-10

    def test_matches_direct(self, g256, w256):
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=4, n_radius=4)
        f = random_schwartz_signal(g256, np.random.default_rng(4))
        a = gabor_analysis(f, w256, lat)
        b = gabor_analysis_direct(f, w256, lat)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_coeffs_subsample_stft(self, g256, w256, lat256):
        f = Signal.from_generator(g256, gaussian_generator())
        V = stft(f, w256).values
        c = gabor_analysis(f, w256, lat256)
        # lattice nodes inside the box (the k range carries a window margin)
        kin = [i for i, k in enumerate(lat256.k_index)
               if 0 <= k * lat256.k_step + 128 < 256]
        kpick = [lat256.k_index[i] * lat256.k_step + 128 for i in kin]
        npick = [n * lat256.n_step + 128 for n in lat256.n_index]
        sub = V[np.ix_(kpick, npick)]
        assert np.max(np.abs(c.values[kin, :] - sub)) < 1e-12

    def test_synthesis_of_unit_coeff(self, g256, w256, lat256):
        vals = np.zeros((len(lat256.k_index), len(lat256.n_index)), dtype=complex)
        ki = lat256.k_index.index(-2)
        ni = lat256.n_index.index(5)
        vals[ki, ni] = 1.0
        from fiolab.gabor import GaborCoeffs
        rec = gabor_synthesis(GaborCoeffs(lat256, vals), w256, lat256)
        atom = gabor_atom(w256, lat256, [-2], [5])
        assert np.max(np.abs(rec.samples - atom.samples)) < 1e-12

    def test_adjointness(self, g256, w256):
        # <D_g c, f> = <c, C_g f> checked against the double-sum oracle
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=4, n_radius=4)
        rng = np.random.default_rng(5)
        f = random_schwartz_signal(g256, rng)
        c_vals = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        from fiolab.gabor import GaborCoeffs
        c = GaborCoeffs(lat, c_vals)
        lhs = inner_product(gabor_synthesis(c, w256, lat), f)
        cf = gabor_analysis(f, w256, lat)
        rhs = complex(np.sum(c_vals * np.conj(cf.values)))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)
        # direct synthesis oracle
        acc = np.zeros(256, dtype=complex)
        for i, k in enumerate(lat.k_index):
            for j, n in enumerate(lat.n_index):
                acc += c_vals[i, j] * gabor_atom(w256, lat, [k], [n]).samples
        assert np.max(np.abs(acc - gabor_synthesis(c, w256, lat).samples)) < 1e-11

    def test_frame_operator_is_synthesis_of_analysis(self, g256, w256, lat256):
        f = random_schwartz_signal(g256, np.random.default_rng(6))
        lhs = frame_operator(f, w256, lat256)
        rhs = gabor_synthesis(gabor_analysis(f, w256, lat256), w256, lat256)
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-12

    def test_frame_operator_matches_dense(self, g256, w256, lat256):
        f = random_schwartz_signal(g256, np.random.default_rng(7))
        S = frame_matrix_dense(w256, lat256)
        lhs = frame_operator(f, w256, lat256).samples
        assert np.max(np.abs(lhs - S @ f.samples)) < 1e-10

    def test_frame_operator_linear(self, g256, w256, lat256):
        rng = np.random.default_rng(8)
        f = random_schwartz_signal(g256, rng)
        h = random_schwartz_signal(g256, rng)
        a, b = 1.3 - 0.2j, -0.7 + 1.1j
        comb = Signal(g256, a * f.samples + b * h.samples)
        lhs = frame_operator(comb, w256, lat256).samples
        rhs = a * frame_operator(f, w256, lat256).samples \
            + b * frame_operator(h, w256, lat256).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def _dense_from_columns(w, lat):
    """S_g assembled column by column from frame_operator on unit vectors."""
    gr = w.grid
    cols = []
    for i in range(gr.size):
        e = np.zeros(gr.size, dtype=complex)
        e[i] = 1.0
        cols.append(frame_operator(Signal(gr, e.reshape(gr.shape)), w, lat).samples.ravel())
    return np.array(cols).T


@pytest.fixture(scope="module")
def grid2d():
    g = GridSpec(2, 4.0, 16)
    w = Window.gaussian(g)
    lat = GaborLattice.for_grid(g, 0.5, 0.5, window=w)
    return w, lat, _dense_from_columns(w, lat)


class TestFrameBounds:
    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    def test_against_dense_oracle(self, n):
        g = GridSpec(1, 8.0, n)
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, 0.5, 0.5, window=w)
        spec = np.linalg.eigvalsh(frame_matrix_dense(w, lat))
        fb = frame_bounds(w, lat)
        assert abs(fb.upper - spec[-1]) / spec[-1] < 1e-12
        assert abs(fb.lower - spec[0]) / spec[0] < 1e-12
        assert fb.is_frame
        assert fb.upper / fb.lower < 10.0
        assert fb.iterations == n // lat.n_step

    def test_against_dense_oracle_2d(self, grid2d):
        w, lat, S = grid2d
        spec = np.linalg.eigvalsh(S)
        fb = frame_bounds(w, lat)
        assert abs(fb.upper - spec[-1]) / spec[-1] < 1e-12
        assert abs(fb.lower - spec[0]) / spec[0] < 1e-12
        assert fb.iterations == (16 // lat.n_step) ** 2

    def test_partial_period_rejected(self, g256, w256):
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=4, n_radius=4)
        for solver in (frame_bounds, dual_window, tight_window):
            with pytest.raises(GridAlignmentError, match="full modulation period"):
                solver(w256, lat)

    @staticmethod
    def _lower_bound_decay(alpha, beta, grids):
        """Lower frame bounds of the Gaussian system and the fitted exponent
        of A against the box half-width."""
        lows = []
        for gr in grids:
            w = Window.gaussian(gr)
            lat = GaborLattice.for_grid(gr, alpha, beta, window=w)
            lows.append(max(frame_bounds(w, lat).lower, 1e-300))
        sizes = [gr.half_width for gr in grids]
        return lows, float(np.polyfit(np.log(sizes), np.log(lows), 1)[0])

    def test_degeneracy_check_beyond_dense_sizes(self):
        lows, slope = self._lower_bound_decay(
            0.5, 0.5, (GridSpec(1, 16.0, 1024), GridSpec(1, 32.0, 2048)))
        assert min(lows) > 0.0
        assert abs(slope) < 0.2

    def test_frame_inequality_on_corpus(self, g256, w256, lat256, dense_bounds):
        a_true, b_true = dense_bounds
        for i, f in enumerate(make_corpus(g256, 100, seed=10)):
            c = gabor_analysis(f, w256, lat256)
            q = float(np.sum(np.abs(c.values) ** 2))
            n2 = lp_norm(f, 2) ** 2
            assert a_true * n2 * (1 - 1e-10) <= q <= b_true * n2 * (1 + 1e-10)

    def test_critical_density_degenerates(self):
        # Balian-Low: at alpha beta = 1 the discrete lower bound collapses as
        # the box grows, while at density 4 it stays put
        grids = (GridSpec(1, 4.0, 128), GridSpec(1, 8.0, 256), GridSpec(1, 16.0, 512))
        _, slope = self._lower_bound_decay(1.0, 1.0, grids)
        assert slope < -1.0
        _, good = self._lower_bound_decay(0.5, 0.5, grids)
        assert abs(good) < 0.2

    def test_critical_density_ill_conditioned(self, monkeypatch):
        g = GridSpec(1, 8.0, 256)
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, 1.0, 1.0, window=w)
        monkeypatch.setattr(gabor, "RATIO_CAP", 100.0)
        fb = frame_bounds(w, lat)
        assert not fb.is_frame


class TestDualTight:
    def test_dual_reconstruction(self, g256, w256, lat256):
        gamma = dual_window(w256, lat256)
        for f in make_corpus(g256, 5, seed=11):
            rec = gabor_synthesis(gabor_analysis(f, w256, lat256), gamma, lat256)
            err = lp_norm(Signal(g256, rec.samples - f.samples), 2) / lp_norm(f, 2)
            assert err < 1e-8
            # commuted direction D_g C_gamma = Id as well
            rec2 = gabor_synthesis(gabor_analysis(f, gamma, lat256), w256, lat256)
            err2 = lp_norm(Signal(g256, rec2.samples - f.samples), 2) / lp_norm(f, 2)
            assert err2 < 1e-8

    def test_tight_window_identity(self, g256, w256, lat256):
        h = tight_window(w256, lat256)
        for f in make_corpus(g256, 4, seed=12):
            sh = frame_operator(f, h, lat256)
            err = lp_norm(Signal(g256, sh.samples - f.samples), 2) / lp_norm(f, 2)
            assert err < 1e-8

    def test_snug_frame_limit(self, g256, w256):
        # alpha, beta small: S_g is nearly scalar and gamma is nearly g / c
        lat = GaborLattice.for_grid(g256, 0.125, 0.125, window=w256)
        gamma = dual_window(w256, lat)
        sg = frame_operator(w256.signal, w256, lat)
        c = inner_product(sg, w256.signal).real / lp_norm(w256.signal, 2) ** 2
        diff = gamma.signal.samples - w256.signal.samples / c
        assert np.max(np.abs(diff)) < 1e-8

    def test_divergence_declared(self, g256, w256, monkeypatch):
        # the critical lattice's block spectrum has B/A = 168, past a cap
        # of 100, and reads as "not a frame"; the honest frame passes it
        monkeypatch.setattr(gabor, "RATIO_CAP", 100.0)
        lat1 = GaborLattice.for_grid(g256, 1.0, 1.0, window=w256)
        with pytest.raises(NotAFrameError):
            dual_window(w256, lat1)
        lat2 = GaborLattice.for_grid(g256, 0.5, 0.5, window=w256)
        dual_window(w256, lat2)

    def test_dual_residual(self, w256, lat256, dense256, grid2d):
        for w, lat, S in ((w256, lat256, dense256), grid2d):
            g = w.signal.samples.ravel()
            gamma = dual_window(w, lat).signal.samples.ravel()
            assert np.linalg.norm(S @ gamma - g) / np.linalg.norm(g) <= 1e-13

    def test_tight_window_against_dense_inverse_root(self, w256, lat256, dense256, grid2d):
        for w, lat, S in ((w256, lat256, dense256), grid2d):
            lam, V = np.linalg.eigh(S)
            g = w.signal.samples.ravel()
            ref = V @ (lam ** -0.5 * (V.conj().T @ g))
            h = tight_window(w, lat).signal.samples.ravel()
            assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# The d = 1 / d > 1 two-branch STFT and its inverse that the batched paths
# replaced, kept verbatim as byte references for them.
# ---------------------------------------------------------------------------

def _stft_reference(f, g, x_stride=1):
    gr = f.grid
    n = gr.samples_per_axis
    d = gr.dim
    ph = _alternating_phase(n, d)
    scale = gr.space_step ** d
    gs = g.signal.samples
    if d == 1:
        ms = np.arange(0, n, x_stride)
        rows = np.empty((len(ms), n), dtype=complex)
        for i, m in enumerate(ms):
            tg = _zero_fill_shift(gs, (m - n // 2,))
            rows[i] = f.samples * np.conj(tg)
        vals = np.fft.fftshift(np.fft.fft(rows, axis=1), axes=1) * ph * scale
        return StftData(gr, vals, x_stride)
    ms = np.arange(0, n, x_stride)
    out_shape = (len(ms),) * d + gr.shape
    vals = np.empty(out_shape, dtype=complex)
    for idx in product(range(len(ms)), repeat=d):
        offs = tuple(int(ms[i]) - n // 2 for i in idx)
        tg = _zero_fill_shift(gs, offs)
        h = f.samples * np.conj(tg)
        vals[idx] = np.fft.fftshift(np.fft.fftn(h)) * ph * scale
    return StftData(gr, vals, x_stride)


def _istft_reference(F, g):
    gr = g.grid
    n = gr.samples_per_axis
    d = gr.dim
    ph = _alternating_phase(n, d)
    scale = gr.space_step ** d
    gs = g.signal.samples
    if d == 1:
        ms = np.arange(0, n, F.x_stride)
        syn = np.fft.ifft(np.fft.ifftshift(F.values * ph, axes=1), axis=1) / gr.space_step
        acc = np.zeros(n, dtype=complex)
        for i, m in enumerate(ms):
            tg = _zero_fill_shift(gs, (m - n // 2,))
            acc += syn[i] * tg
        return Signal(gr, acc * scale * F.x_stride)
    ms = np.arange(0, n, F.x_stride)
    acc = np.zeros(gr.shape, dtype=complex)
    for idx in product(range(len(ms)), repeat=d):
        offs = tuple(int(ms[i]) - n // 2 for i in idx)
        tg = _zero_fill_shift(gs, offs)
        piece = np.fft.ifftn(np.fft.ifftshift(F.values[idx] * ph)) / gr.space_step ** d
        acc += piece * tg
    return Signal(gr, acc * scale * F.x_stride ** d)


MERGED_GRIDS = [GridSpec(1, 8.0, 256), GridSpec(2, 4.0, 16)]


class TestMergedPathsByteReference:
    @pytest.mark.parametrize("x_stride", [1, 2])
    @pytest.mark.parametrize("g", MERGED_GRIDS, ids=["d1", "d2"])
    def test_stft_istft(self, g, x_stride):
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(21))
        V = stft(f, w, x_stride=x_stride)
        ref = _stft_reference(f, w, x_stride=x_stride)
        assert V.values.shape == ref.values.shape
        assert np.array_equal(V.values, ref.values)
        assert np.array_equal(istft(V, w).samples, _istft_reference(ref, w).samples)

    def test_atom_rows_d1(self, g256, w256, lat256):
        tones = _tone_table(lat256, g256.samples_per_axis)
        old = _window_table(w256.signal.samples, lat256)[:, None, :] * tones[None, :, :]
        assert np.array_equal(_atom_rows(w256, lat256), old.reshape(-1, old.shape[-1]))


# (grid, alpha, beta, k_radius, n_radius): one full period with the window
# margin, a radius-3 box, an n_step coprime to N (tone period N) and, in
# d = 2, a full period of n, a radius-3 box and a coprime n_step.
ANALYSIS_LATTICES = {
    "full": (GridSpec(1, 8.0, 256), 0.5, 0.25, None, None),
    "radius3": (GridSpec(1, 8.0, 256), 0.5, 0.25, 3, 3),
    "coprime": (GridSpec(1, 8.0, 128), 0.5, 3 / 16, 4, 11),
    "d2_period": (GridSpec(2, 4.0, 16), 0.5, 0.25, 3, None),
    "d2_radius3": (GridSpec(2, 4.0, 16), 0.5, 0.25, 3, 3),
    "d2_coprime": (GridSpec(2, 2.0, 16), 0.5, 0.75, 1, 2),
}
# Largest |D_g c - sum c_{k,n} g_{k,n}| over the largest sample of the atom
# sum.  gabor_atom evaluates each tone at the full x, with phase arguments
# near 800 rad on the "full" lattice, so the atom sum carries about 1e-14
# of rounding there; the fold's centred tones read 4e-15 against tones
# taken at exact residues.  The worst of three seeds was 1.4e-14 ("full"),
# 3.5e-15 (d = 2) and 7.9e-16 (the others).
SYNTHESIS_TOL = {"full": 3e-14, "d2_period": 1e-14, "d2_radius3": 1e-14}


def _analysis_case(lname, seed):
    g, alpha, beta, kr, nr = ANALYSIS_LATTICES[lname]
    w = Window.gaussian(g)
    lat = GaborLattice.for_grid(g, alpha, beta, window=w, k_radius=kr, n_radius=nr)
    rng = np.random.default_rng(seed)
    f = random_schwartz_signal(g, rng)
    shape = (len(lat.k_index),) * g.dim + (len(lat.n_index),) * g.dim
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return w, lat, f, c


class TestFoldedAnalysisSynthesis:
    """gabor_analysis is the Walnut-fiber fold of one column and
    gabor_synthesis its adjoint; both take the tones of one period centred
    on x = 0.  They are checked against the atom-by-atom sums, not against
    the bits of an older path."""

    @pytest.mark.parametrize("lname", sorted(ANALYSIS_LATTICES))
    def test_analysis_matches_direct(self, lname):
        """Worst of four seeds: 5.2e-16 of the largest coefficient (1.2e-15
        for the per-translate FFT path this fold replaced)."""
        w, lat, f, _ = _analysis_case(lname, 31)
        a = gabor_analysis(f, w, lat).values
        b = gabor_analysis_direct(f, w, lat).values
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    @pytest.mark.parametrize("lname", sorted(ANALYSIS_LATTICES))
    def test_synthesis_matches_atom_sum(self, lname):
        w, lat, _, c = _analysis_case(lname, 32)
        g = lat.grid
        acc = np.zeros(g.shape, dtype=complex)
        ks, ns = lat.k_index, lat.n_index
        for ki in product(range(len(ks)), repeat=g.dim):
            for ni in product(range(len(ns)), repeat=g.dim):
                atom = gabor_atom(w, lat, [ks[i] for i in ki], [ns[i] for i in ni])
                acc += c[ki + ni] * atom.samples
        rec = gabor_synthesis(GaborCoeffs(lat, c), w, lat).samples
        tol = SYNTHESIS_TOL.get(lname, 2e-15)
        assert np.max(np.abs(rec - acc)) <= tol * np.max(np.abs(acc))

    @pytest.mark.parametrize("lname", sorted(ANALYSIS_LATTICES))
    def test_adjoint(self, lname):
        """<C_g f, c> = <f, D_g c> to 1e-15 of ||C_g f|| ||c|| (worst of three
        seeds: 7.7e-17)."""
        w, lat, f, c = _analysis_case(lname, 33)
        a = gabor_analysis(f, w, lat).values
        s = gabor_synthesis(GaborCoeffs(lat, c), w, lat)
        lhs = np.vdot(c, a)
        rhs = np.conj(inner_product(s, f))
        assert abs(lhs - rhs) <= 1e-15 * np.linalg.norm(a) * np.linalg.norm(c)

    def test_band_check(self, g256, w256):
        """n beta past the resolved band [-N/2, N/2) deta is rejected; the
        fold itself would alias it onto a band frequency."""
        f = random_schwartz_signal(g256, np.random.default_rng(34))
        edge = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=2, n_radius=15)
        assert gabor_analysis(f, w256, edge).values.shape == (5, 31)
        for nr in (16, 40):
            lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=2, n_radius=nr)
            with pytest.raises(GridAlignmentError, match="resolved band"):
                gabor_analysis(f, w256, lat)


def _gathered_translates(w, lat):
    """The translates as the old _window_table gathered them: fancy
    indexing of the windows of w zero-padded to 3N per axis, each shift
    clamped to +-N, one row per k tuple."""
    g = lat.grid
    n = g.samples_per_axis
    pad = np.zeros((3 * n,) * g.dim, dtype=complex)
    pad[(slice(n, 2 * n),) * g.dim] = w.signal.samples
    views = np.lib.stride_tricks.sliding_window_view(pad, g.shape)
    starts = n - np.clip(lat.k_values * lat.k_step, -n, n)
    return views[np.ix_(*[starts] * g.dim)].reshape((-1,) + g.shape)


def _owner(a):
    """The array that owns the memory a views."""
    while not (isinstance(a, np.ndarray) and a.flags.owndata):
        a = a.base
    return a


# ANALYSIS_LATTICES and FOLD_LATTICES, plus two k ranges whose shifts pass
# +-N per axis (their first and last translates are all zero fill)
TABLE_LATTICES = {**{f"analysis_{k}": v for k, v in ANALYSIS_LATTICES.items()},
                  **{f"fold_{k}": v for k, v in FOLD_LATTICES.items()},
                  "past_n_d1": (GridSpec(1, 8.0, 256), 0.5, 0.5, 40, 1),
                  "past_n_d2": (GridSpec(2, 4.0, 16), 0.5, 0.5, 20, 1)}


class TestWindowTable:
    """_window_table is a view of the window zero-padded to reach the
    largest lattice shift; it equals the old gathered translates, and a
    stack of per-shift _zero_fill_shift calls, bit for bit."""

    @pytest.mark.parametrize("lname", sorted(TABLE_LATTICES))
    def test_view_matches_gathered_translates(self, lname):
        g, alpha, beta, kr, nr = TABLE_LATTICES[lname]
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, alpha, beta, window=w, k_radius=kr, n_radius=nr)
        table = _window_table(w.signal.samples, lat)
        nk = len(lat.k_index)
        assert table.shape == (nk,) * g.dim + g.shape
        src = _owner(table)
        reach = lat.k_step * max(abs(k) for k in lat.k_index)
        assert src.shape == (g.samples_per_axis + 2 * reach,) * g.dim
        assert np.shares_memory(table, src) and not table.flags.writeable
        flat = table.reshape((-1,) + g.shape)
        assert np.array_equal(flat, _gathered_translates(w, lat))
        ref = np.stack([_zero_fill_shift(w.signal.samples, tuple(k * lat.k_step for k in kt))
                        for kt in lat.k_tuples()])
        assert np.array_equal(flat, ref)
        if lname.startswith("past_n"):
            assert reach > g.samples_per_axis
            assert not np.any(flat[0]) and not np.any(flat[-1])

    def test_k_index_must_be_consecutive(self, g256):
        with pytest.raises(ValueError, match="consecutive"):
            GaborLattice(g256, 0.5, 0.5, (0, 2, 4), (0, 1))


class TestOneSignalPeaks:
    """On the benchmark's solvers lattice (N = 1024, L = 16, alpha = beta =
    0.5, 71 x 64 atoms) one analysis and one synthesis build no table of
    translates: traced peaks 0.39 and 0.18 MiB, against 2.22 and 2.48 MiB
    for the gathered, conjugated and fiber-ordered copies they replaced."""

    @pytest.fixture(scope="class")
    def case(self):
        g = GridSpec(1, 16.0, 1024)
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, 0.5, 0.5, window=w)
        assert lat.num_atoms == 71 * 64
        f = random_schwartz_signal(g, np.random.default_rng(35))
        return w, lat, f, gabor_analysis(f, w, lat)

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_analysis_peak(self, case):
        w, lat, f, _ = case
        assert self._peak(lambda: gabor_analysis(f, w, lat)) <= 1.5 * 2 ** 20

    def test_synthesis_peak(self, case):
        w, lat, _, c = case
        assert self._peak(lambda: gabor_synthesis(c, w, lat)) <= 0.5 * 2 ** 20


class TestStftBlocks:
    """stft and mod_norm read the STFT from _stft_blocks, _STFT_BLOCK_BYTES
    of rows at a time.  At that size a small grid fits in one block, so the
    byte checks here also shrink the block to 7 rows: several blocks, the
    last one short."""

    @pytest.mark.parametrize("x_stride", [1, 2, 3])
    @pytest.mark.parametrize("g", MERGED_GRIDS, ids=["d1", "d2"])
    def test_small_blocks_keep_bits(self, g, x_stride, monkeypatch):
        monkeypatch.setattr(gabor, "_STFT_BLOCK_BYTES", 7 * 16 * g.size)
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(26))
        V = stft(f, w, x_stride=x_stride)
        assert np.array_equal(V.values, _stft_reference(f, w, x_stride=x_stride).values)
        nodes = len(range(0, g.samples_per_axis, x_stride)) ** g.dim
        starts = [(i0, len(rows)) for i0, rows in gabor._stft_blocks(f, w, x_stride)]
        assert [i0 for i0, _ in starts] == list(range(0, nodes, 7))
        assert sum(b for _, b in starts) == nodes and starts[-1][1] <= 7

    def test_grid_mismatch_rejected(self, g256, w256):
        f = random_schwartz_signal(GridSpec(1, 8.0, 128), np.random.default_rng(27))
        with pytest.raises(ValueError, match="share a grid"):
            stft(f, w256)

    def test_m1_call_holds_one_copy(self):
        """The m1 sweep's STFT (N = 4096, x_stride 4) is 64 MB of values;
        filling it block by block keeps the traced peak near one copy."""
        g = sharpness_grid()
        f = make_fn(64, default_chi(), g)
        w = sharpness_window(g)
        tracemalloc.start()
        try:
            V = stft(f, w, x_stride=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.values.nbytes == 64 * 2 ** 20
        assert peak <= 80 * 2 ** 20


class TestLatticeMargin:
    def test_window_margin_same_in_every_dimension(self):
        """The window-mass margin of k_radius comes from each axis's marginal
        of |g|^2, so a d = 2 Gaussian lattice gets the d = 1 range."""
        lats = [GaborLattice.for_grid(g, 0.5, 0.5, window=Window.gaussian(g))
                for g in (GridSpec(1, 4.0, 16), GridSpec(2, 4.0, 16))]
        bare = GaborLattice.for_grid(GridSpec(2, 4.0, 16), 0.5, 0.5)
        assert lats[0].k_index == lats[1].k_index
        assert lats[1].k_index[-1] == 11 > bare.k_index[-1] == 8

    def test_widest_axis_sets_the_margin(self):
        g1, g2 = GridSpec(1, 4.0, 16), GridSpec(2, 4.0, 16)
        narrow, wide = (Window.gaussian(g1, wd) for wd in (0.25, 2.0))
        k_wide = GaborLattice.for_grid(g1, 0.5, 0.5, window=wide).k_index
        assert k_wide[-1] == 15
        for a, b in ((narrow, wide), (wide, narrow)):
            w = Window.from_signal(Signal(g2, np.outer(a.signal.samples, b.signal.samples)))
            assert GaborLattice.for_grid(g2, 0.5, 0.5, window=w).k_index == k_wide


class TestTwoDimensional:
    def test_stft_strided_matches_direct(self):
        g = MERGED_GRIDS[1]
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(25))
        fast = stft(f, w, x_stride=2).values
        slow = stft_direct(f, w, x_stride=2).values
        assert fast.shape == (8, 8, 16, 16)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_frame_matrix_dense(self, grid2d):
        w, lat, S = grid2d
        D = frame_matrix_dense(w, lat)
        assert np.max(np.abs(D - S)) <= 1e-12 * np.max(np.abs(S))


def _fresh_copy(w):
    """A new Window on a copy of w's samples: its memo starts empty."""
    return Window(signal=Signal(w.grid, w.signal.samples.copy()), l2_norm=w.l2_norm)


def _lattice_outputs(w, lat, seed):
    """Every output one (window, lattice) pair feeds: the one-column fold of
    gabor_analysis (called directly, since "past_period" leaves the band),
    synthesis, the many-column fold and, on a full modulation period, the
    frame solvers (the windows only when the system is a frame)."""
    g = lat.grid
    rng = np.random.default_rng(seed)
    f = random_schwartz_signal(g, rng)
    shape = (len(lat.k_index),) * g.dim + (len(lat.n_index),) * g.dim
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cols = rng.normal(size=(g.size, 3)) + 1j * rng.normal(size=(g.size, 3))
    out = {"analysis": gabor._folded_analysis(f.samples.reshape(-1, 1), w, lat),
           "synthesis": gabor_synthesis(GaborCoeffs(lat, c), w, lat).samples,
           "fold": gabor._folded_analysis(cols, w, lat)}
    try:
        fb = frame_bounds(w, lat)
    except GridAlignmentError:
        return out
    out["bounds"] = np.array([fb.lower, fb.upper, fb.iterations])
    if not fb.is_frame:
        return out
    out["dual"] = dual_window(w, lat).signal.samples
    out["tight"] = tight_window(w, lat).signal.samples
    out["tight_bounds"] = tight_window(w, lat, bounds=fb).signal.samples
    return out


MEMO_LATTICES = {**{f"analysis_{k}": v for k, v in ANALYSIS_LATTICES.items()},
                 **{f"fold_{k}": v for k, v in FOLD_LATTICES.items()}}


class TestLatticeMemo:
    """Each Window keeps what it implies on a lattice (tones, translate
    views, the Walnut factorization) in its own memo, built on first use;
    a warm memo gives the bits of a cold one."""

    def test_samples_and_fields_are_read_only(self, g256):
        w = Window.gaussian(g256)
        with pytest.raises(ValueError, match="read-only"):
            w.signal.samples[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            w.signal.samples *= 2.0
        with pytest.raises(AttributeError):
            w.signal = Signal(g256, np.ones(256))

    def test_solvers_share_one_factorization(self, g256, monkeypatch):
        w = Window.gaussian(g256)
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, window=w)
        blocks, eighs = [], []
        frame_blocks, eigh = gabor._frame_blocks, np.linalg.eigh
        monkeypatch.setattr(gabor, "_frame_blocks",
                            lambda *a: blocks.append(1) or frame_blocks(*a))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: eighs.append(1) or eigh(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        fb = frame_bounds(w, lat)
        dual_window(w, lat)
        tight_window(w, lat, bounds=fb)
        tight_window(w, lat)
        assert len(blocks) == 1 and len(eighs) == 1

    def test_tones_built_once_per_window(self, monkeypatch):
        """The c03 loop: 8 reconstructions through the dual window and 8
        tight-frame applications make 16 analyses and 16 syntheses over
        three windows, and build the tones of one period three times."""
        g = GridSpec(1, 8.0, 256)
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, 0.5, 0.5, window=w)
        gamma, h = dual_window(w, lat), tight_window(w, lat)
        calls = []
        tone_table = gabor._tone_table
        monkeypatch.setattr(gabor, "_tone_table",
                            lambda *a: calls.append(a[1]) or tone_table(*a))
        for f in make_corpus(g, 8, seed=36):
            gabor_synthesis(gabor_analysis(f, w, lat), gamma, lat)
            frame_operator(f, h, lat)
        assert calls == [lat.grid.samples_per_axis // lat.n_step] * 2
        frame_bounds(w, lat)
        assert len(calls) == 2  # w's entry was built by dual_window

    @pytest.mark.parametrize("lname", sorted(MEMO_LATTICES))
    def test_warm_memo_keeps_bits(self, lname):
        g, alpha, beta, kr, nr = MEMO_LATTICES[lname]
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, alpha, beta, window=w, k_radius=kr, n_radius=nr)
        other = GaborLattice.for_grid(g, alpha, beta, window=w, k_radius=1, n_radius=1)
        _lattice_outputs(w, lat, 37)
        _lattice_outputs(w, other, 38)  # a second entry in the same memo
        warm = _lattice_outputs(w, lat, 39)
        cold = _lattice_outputs(_fresh_copy(w), lat, 39)
        assert warm.keys() == cold.keys()
        if lname in ("analysis_full", "analysis_d2_period"):
            assert "bounds" in warm
        assert ("dual" in warm) == (lname == "analysis_full")
        for key in warm:
            assert np.array_equal(warm[key], cold[key]), key

    def test_partial_period_rejected_with_warm_memo(self, g256):
        w = Window.gaussian(g256)
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=4, n_radius=4)
        f = random_schwartz_signal(g256, np.random.default_rng(40))
        gabor_synthesis(gabor_analysis(f, w, lat), w, lat)
        for _ in range(2):
            for solver in (frame_bounds, dual_window, tight_window):
                with pytest.raises(GridAlignmentError, match="full modulation period"):
                    solver(w, lat)

    def test_threads_share_a_cold_memo(self, g256):
        """Threads racing on one cold window may each build its entry; every
        thread still gets the single-thread bits, and one entry is kept."""
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=20)
        f = random_schwartz_signal(g256, np.random.default_rng(41))
        ref_w = Window.gaussian(g256)
        ref = (gabor_analysis(f, ref_w, lat).values, frame_bounds(ref_w, lat).lower,
               dual_window(ref_w, lat).signal.samples)
        w = Window.gaussian(g256)
        results, errors = [], []

        def work():
            try:
                results.append((gabor_analysis(f, w, lat).values, frame_bounds(w, lat).lower,
                                dual_window(w, lat).signal.samples))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == 6
        for got in results:
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert list(w._memo) == [lat]

    def test_memo_dies_with_its_window(self, g256):
        w = Window.gaussian(g256)
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, window=w)
        frame_bounds(w, lat)
        entry = weakref.ref(w._tables(lat))
        assert _fresh_copy(w)._memo == {}
        del w
        gc.collect()
        assert entry() is None
