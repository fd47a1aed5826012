import tracemalloc

import numpy as np
import pytest

from fiolab import gabor
from fiolab.experiments import default_chi, make_fn, sharpness_grid, sharpness_window
from fiolab.gabor import (
    GaborLattice,
    Window,
    gabor_analysis,
    stft,
    stft_direct,
    tight_window,
)
from fiolab.grid import (
    GridSpec,
    Signal,
    WeightSpec,
    bump_generator,
    gaussian_generator,
    fourier_transform,
    lp_norm,
    modulate,
    random_schwartz_signal,
    translate,
)
from fiolab.norms import (
    dilation_exponent_check,
    dilation_indices,
    fl_norm,
    gabor_norm_equivalence_check,
    mod_norm,
    seq_norm,
    _mixed_norm,
    _weight_array,
)

from conftest import make_corpus


@pytest.fixture(scope="module")
def g256():
    return GridSpec(1, 8.0, 256)


@pytest.fixture(scope="module")
def w256(g256):
    return Window.gaussian(g256)


class TestModNorm:
    def test_m2_equals_l2(self, g256, w256):
        for f in make_corpus(g256, 5, seed=20):
            v = mod_norm(f, 2, window=w256).value
            assert abs(v - lp_norm(f, 2)) / lp_norm(f, 2) < 1e-6

    def test_shift_invariance(self, g256, w256):
        f = Signal.from_generator(g256, gaussian_generator())
        x0 = 32 * g256.space_step
        eta0 = 36 * g256.freq_step
        for p in (1.0, 2.0, np.inf):
            v0 = mod_norm(f, p, window=w256).value
            shifted = modulate(translate(f, [x0]), [eta0])
            v1 = mod_norm(shifted, p, window=w256).value
            assert abs(v1 - v0) / v0 < 1e-8

    def test_gaussian_m1_quadrature_oracle(self, g256, w256):
        # |V| = exp(-pi (x^2+eta^2)/2) integrates to 2 exactly; the refined
        # quadrature of the closed form is the oracle
        f = w256.signal
        v = mod_norm(f, 1, window=w256).value
        xs = np.linspace(-12, 12, 4801)
        quad = np.trapezoid(np.exp(-np.pi * xs ** 2 / 2), xs) ** 2
        assert abs(v - quad) / quad < 1e-4
        assert abs(quad - 2.0) < 1e-10

    def test_mixed_norm_axes(self, g256, w256):
        # p=inf, q=2 differs from p=2, q=inf for an asymmetric signal
        f = Signal.from_generator(g256, gaussian_generator(0.5))
        a = mod_norm(f, np.inf, 2, window=w256).value
        b = mod_norm(f, 2, np.inf, window=w256).value
        assert a != pytest.approx(b, rel=1e-3)

    def test_holder_chain(self, g256, w256):
        # pointwise |V| <= ||f|| ||g|| forces M^inf <= M^2 <= M^1
        for f in make_corpus(g256, 5, seed=21):
            m1 = mod_norm(f, 1, window=w256).value
            m2 = mod_norm(f, 2, window=w256).value
            mi = mod_norm(f, np.inf, window=w256).value
            assert mi <= m2 * (1 + 1e-6)
            assert m2 <= m1 * (1 + 1e-6)

    def test_weight_monotonicity(self, g256, w256):
        f = random_schwartz_signal(g256, np.random.default_rng(23))
        v00 = mod_norm(f, 1, weight=WeightSpec(0, 0), window=w256).value
        v11 = mod_norm(f, 1, weight=WeightSpec(1, 1), window=w256).value
        v22 = mod_norm(f, 1, weight=WeightSpec(2, 2), window=w256).value
        assert v00 <= v11 * (1 + 1e-12) and v11 <= v22 * (1 + 1e-12)

    def test_window_independence(self, g256):
        wa = Window.gaussian(g256, 1.0)
        wb = Window.gaussian(g256, 0.6)
        ratios = []
        for f in make_corpus(g256, 8, seed=24):
            ra = mod_norm(f, 1, window=wa).value
            rb = mod_norm(f, 1, window=wb).value
            ratios.append(ra / rb)
        assert max(ratios) / min(ratios) < 10.0


def _mod_norm_reference(data, p, q, weight):
    """mod_norm as it was computed from the whole dense STFT data."""
    gr = data.grid
    xs = gr.space_axis()[np.arange(0, gr.samples_per_axis, data.x_stride)]
    w_arr = _weight_array(xs, gr.freq_axis(), weight, gr.dim)
    return _mixed_norm(data.values, w_arr, p, q, gr.dim,
                       gr.space_step * data.x_stride, gr.freq_step)


PQ = [(p, q) for p in (1.0, 2.0, 4.0, np.inf) for q in dict.fromkeys((p, np.inf))]
WEIGHTS = [WeightSpec(0, 0), WeightSpec(1, 1), WeightSpec(2, -1)]


class TestStreamedModNorm:
    """mod_norm streams the STFT in blocks and must equal the dense-STFT
    norm bit for bit.  "small" blocks are 7 rows, so every grid here spans
    several blocks and x_stride 3 leaves a short last one."""

    @pytest.mark.parametrize("block", ["default", "small"])
    @pytest.mark.parametrize("x_stride", [1, 2, 3])
    @pytest.mark.parametrize("g", [GridSpec(1, 8.0, 256), GridSpec(2, 4.0, 16)],
                             ids=["d1", "d2"])
    def test_matches_dense_reference(self, g, x_stride, block, monkeypatch):
        if block == "small":
            monkeypatch.setattr(gabor, "_STFT_BLOCK_BYTES", 7 * 16 * g.size)
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(29))
        data = stft(f, w, x_stride=x_stride)
        for p, q in PQ:
            for weight in WEIGHTS:
                got = mod_norm(f, p, q, weight, window=w, x_stride=x_stride).value
                assert got == _mod_norm_reference(data, p, q, weight), (p, q, weight)

    def test_m1_witness(self):
        g = sharpness_grid()
        w = sharpness_window(g)
        f = make_fn(64, default_chi(), g)
        ref = _mod_norm_reference(stft(f, w, x_stride=4), 1.0, 1.0, WeightSpec())
        assert mod_norm(f, 1.0, window=w, x_stride=4).value == ref

    def test_2d_against_direct_summation(self):
        g = GridSpec(2, 4.0, 16)
        w = Window.gaussian(g)
        f = random_schwartz_signal(g, np.random.default_rng(30))
        data = stft_direct(f, w, x_stride=2)
        for p, q in [(1.0, 1.0), (2.0, np.inf), (np.inf, 2.0)]:
            for weight in WEIGHTS:
                ref = _mod_norm_reference(data, p, q, weight)
                got = mod_norm(f, p, q, weight, window=w, x_stride=2).value
                assert abs(got - ref) <= 1e-12 * ref

    def test_m1_call_peak_memory(self):
        """The dense STFT of this call alone is 64 MB."""
        g = sharpness_grid()
        w = sharpness_window(g)
        f = make_fn(64, default_chi(), g)
        tracemalloc.start()
        try:
            mod_norm(f, 1.0, window=w, x_stride=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20


class TestFlNorm:
    def test_modulation_invariance(self):
        g = GridSpec(1, 2.0, 1024)
        base = bump_generator()
        vals = [fl_norm(Signal.from_generator(g, base.modulated([float(n)])), 1.0)
                for n in (8, 16, 32, 64)]
        assert max(vals) - min(vals) < 1e-8 * vals[0]

    def test_parseval(self, g256):
        f = random_schwartz_signal(g256, np.random.default_rng(25))
        assert abs(fl_norm(f, 2) - lp_norm(f, 2)) / lp_norm(f, 2) < 1e-10

    def test_gaussian_self_dual(self, g256):
        f = Signal.from_generator(g256, gaussian_generator())
        assert abs(fl_norm(f, 1) - lp_norm(f, 1)) / lp_norm(f, 1) < 1e-10


class TestSeqNorm:
    def test_single_coefficient(self, g256, w256):
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=4, n_radius=4)
        from fiolab.gabor import GaborCoeffs
        vals = np.zeros((9, 9), dtype=complex)
        vals[6, 2] = 2.0 - 1.0j  # k = 2, n = -2
        c = GaborCoeffs(lat, vals)
        w = WeightSpec(s1=1.0, s2=2.0)
        expect = abs(vals[6, 2]) * np.sqrt(1 + 1.0) ** 2.0 * np.sqrt(1 + 1.0) ** 1.0
        assert abs(seq_norm(c, 1, 1, w) - expect) < 1e-12

    def test_diagonal_reduces_to_lp(self, g256, w256):
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=3, n_radius=3)
        rng = np.random.default_rng(26)
        vals = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        from fiolab.gabor import GaborCoeffs
        c = GaborCoeffs(lat, vals)
        wk = np.sqrt(1 + (0.5 * lat.k_values) ** 2) ** 1.5
        wn = np.sqrt(1 + (0.5 * lat.n_values) ** 2) ** 0.5
        direct = (np.sum((np.abs(vals) * np.outer(wk, wn)) ** 3)) ** (1 / 3)
        assert abs(seq_norm(c, 3, 3, WeightSpec(0.5, 1.5)) - direct) < 1e-12

    @pytest.mark.parametrize("p,q", [(3.0, 2.0), (np.inf, 1.0), (1.5, np.inf)])
    def test_matches_inline_reference(self, g256, p, q):
        """Bit for bit the mixed sum seq_norm computed before it shared the
        weight builder and the mixed sum with mod_norm."""
        from fiolab.gabor import GaborCoeffs
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, k_radius=3, n_radius=5)
        rng = np.random.default_rng(28)
        vals = rng.normal(size=(7, 11)) + 1j * rng.normal(size=(7, 11))
        weight = WeightSpec(0.7, -1.3)
        wk = np.sqrt(1.0 + (lat.alpha * lat.k_values.astype(float)) ** 2) ** weight.s2
        wn = np.sqrt(1.0 + (lat.beta * lat.n_values.astype(float)) ** 2) ** weight.s1
        a = np.abs(vals) * (np.ones((1, 1)) * wk.reshape(7, 1) * wn.reshape(1, 11))
        inner = a.max(axis=(0,)) if np.isinf(p) else np.sum(a ** p, axis=(0,)) ** (1.0 / p)
        ref = float(inner.max()) if np.isinf(q) else float(np.sum(inner ** q) ** (1.0 / q))
        assert seq_norm(GaborCoeffs(lat, vals), p, q, weight) == ref

    def test_l2_within_frame_bounds(self, g256, w256):
        from fiolab.gabor import frame_matrix_dense
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, window=w256)
        spec = np.linalg.eigvalsh(frame_matrix_dense(w256, lat))
        f = random_schwartz_signal(g256, np.random.default_rng(27))
        q = seq_norm(gabor_analysis(f, w256, lat), 2, 2) ** 2
        n2 = lp_norm(f, 2) ** 2
        assert spec[0] * n2 * (1 - 1e-10) <= q <= spec[-1] * n2 * (1 + 1e-10)


class TestEquivalence:
    def test_parseval_tight(self, g256, w256):
        """The coefficients of hn = h / ||h||_2 are those of the canonical
        tight window h over ||h||_2, and h's p = 2 sequence norm is ||f||_2
        (Parseval), so every ratio is 1 / ||h||_2."""
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, window=w256)
        h = tight_window(w256, lat)
        hn = Window.from_signal(h.signal)
        rep = gabor_norm_equivalence_check(
            make_corpus(g256, 5, seed=28), 2, 2, WeightSpec(), hn, lat)
        assert rep.lo * h.l2_norm > 0.99 and rep.hi * h.l2_norm < 1.01

    @pytest.mark.parametrize("p,w", [(1.0, WeightSpec()), (1.0, WeightSpec(1, 1)),
                                     (np.inf, WeightSpec())])
    def test_spread_bounded(self, g256, w256, p, w):
        lat = GaborLattice.for_grid(g256, 0.5, 0.5, window=w256)
        rep = gabor_norm_equivalence_check(
            make_corpus(g256, 6, seed=29), p, p, w, w256, lat)
        assert rep.spread < 10.0


class TestLloc:
    def test_compact_support_stable_under_modulation(self):
        # on a fixed compact support ||f||_{M^{p,q}} ~ ||f||_{FL^q}, so the
        # ratio does not drift as the bump is modulated up the band
        g = GridSpec(1, 2.0, 1024)
        ratios = []
        for n in (8, 16, 32, 64, 128):
            f = Signal.from_generator(g, bump_generator().modulated([float(n)]))
            ratios.append(mod_norm(f, 1, 1, window=Window.gaussian(g, 0.4)).value / fl_norm(f, 1))
        assert max(ratios) / min(ratios) < 2.0


class TestDilationExponents:
    def test_indices(self):
        assert dilation_indices(1.0) == (0.0, -1.0)
        assert dilation_indices(2.0) == (-0.5, -0.5)
        assert dilation_indices(np.inf) == (0.0, -1.0)
        assert dilation_indices(4.0) == (-0.25, -0.75)

    def test_p2_exact_scaling(self):
        g = GridSpec(1, 20.0, 1024)
        f = Signal.from_generator(g, gaussian_generator())
        fit = dilation_exponent_check(f, 2, [1, 2, 4], x_stride=2)
        assert abs(fit.slope + 0.5) < 0.02

    def test_p1_upper_regime(self):
        g = GridSpec(1, 20.0, 1024)
        f = Signal.from_generator(g, gaussian_generator())
        fit = dilation_exponent_check(f, 1, [1, 2, 4], x_stride=2)
        mu1, _ = dilation_indices(1.0)
        assert fit.slope <= g.dim * mu1 + 0.1
