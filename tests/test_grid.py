import numpy as np
import pytest
import warnings
from hypothesis import given, settings, strategies as st

from fiolab.grid import (
    GridAlignmentError,
    GridSpec,
    Signal,
    TruncationAliasingWarning,
    WeightSpec,
    bump_generator,
    dilate,
    fourier_transform,
    gaussian_generator,
    inner_product,
    inverse_fourier,
    lp_norm,
    modulate,
    random_schwartz_signal,
    translate,
    _edge_mass_ratio,
    _zero_fill_shift,
)
from fiolab.norms import _weight_array

from conftest import make_corpus


def dft_direct(f: Signal) -> np.ndarray:
    """O(N^2) summation oracle for the grid transform convention."""
    g = f.grid
    x = g.space_points()
    eta = g.freq_points()
    ker = np.exp(-2j * np.pi * (eta @ x.T))
    return (ker @ f.samples.ravel()) * g.space_step ** g.dim


class TestFourier:
    def test_gaussian_invariant(self):
        g = GridSpec(1, 8.0, 256)
        f = Signal.from_generator(g, gaussian_generator())
        F = fourier_transform(f)
        assert np.max(np.abs(F.samples - np.exp(-np.pi * g.freq_axis() ** 2))) < 1e-10

    def test_matches_direct_summation(self):
        g = GridSpec(1, 4.0, 64)
        rng = np.random.default_rng(1)
        f = random_schwartz_signal(g, rng)
        F = fourier_transform(f)
        assert np.max(np.abs(F.samples - dft_direct(f))) < 1e-12

    def test_delta_flat(self):
        g = GridSpec(1, 4.0, 64)
        vals = np.zeros(64, dtype=complex)
        vals[32] = 1.0  # node at x = 0
        F = fourier_transform(Signal(g, vals))
        oracle = dft_direct(Signal(g, vals))
        assert np.max(np.abs(F.samples - oracle)) < 1e-14
        assert np.max(np.abs(F.samples - g.space_step)) < 1e-14

    def test_flat_to_delta(self):
        g = GridSpec(1, 4.0, 64)
        flat = Signal(g, np.full(64, g.space_step, dtype=complex))
        f = inverse_fourier(flat)
        oracle = np.zeros(64)
        oracle[32] = 1.0
        assert np.max(np.abs(f.samples - oracle)) < 1e-13

    def test_translation_modulation_duality(self, grid256):
        f = Signal.from_generator(grid256, gaussian_generator())
        x0 = 16 * grid256.space_step
        lhs = fourier_transform(translate(f, [x0]))
        rhs = modulate(fourier_transform(f), [-x0])
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-10
        # (M_eta f)^ = T_eta fhat with a frequency-node-aligned eta
        eta0 = 8 * grid256.freq_step
        lhs2 = fourier_transform(modulate(f, [eta0]))
        shift = int(round(eta0 / grid256.freq_step))
        expect = np.roll(fourier_transform(f).samples, shift)
        expect[:shift] = 0.0
        assert np.max(np.abs(lhs2.samples - expect)) < 1e-10

    def test_round_trip(self, grid256):
        rng = np.random.default_rng(2)
        f = random_schwartz_signal(grid256, rng)
        back = inverse_fourier(fourier_transform(f))
        rel = lp_norm(Signal(grid256, back.samples - f.samples), 2) / lp_norm(f, 2)
        assert rel < 1e-12

    def test_round_trip_2d(self):
        g = GridSpec(2, 4.0, 32)
        rng = np.random.default_rng(3)
        f = random_schwartz_signal(g, rng)
        back = inverse_fourier(fourier_transform(f))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12
        F = fourier_transform(f)
        assert abs(lp_norm(F, 2) - lp_norm(f, 2)) / lp_norm(f, 2) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_parseval(self, seed):
        g = GridSpec(1, 8.0, 128)
        f = random_schwartz_signal(g, np.random.default_rng(seed))
        rel = abs(lp_norm(fourier_transform(f), 2) - lp_norm(f, 2)) / lp_norm(f, 2)
        assert rel < 1e-10


class TestShifts:
    def test_identity_shifts(self, gauss256):
        f = gauss256
        assert np.array_equal(translate(f, [0.0]).samples, f.samples)
        assert np.max(np.abs(modulate(f, [0.0]).samples - f.samples)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-40, 40), st.floats(-4.0, 4.0))
    def test_commutation_phase(self, shift, eta0):
        g = GridSpec(1, 8.0, 256)
        f = Signal.from_generator(g, gaussian_generator())
        x0 = shift * g.space_step
        lhs = modulate(translate(f, [x0]), [eta0])
        rhs = translate(modulate(f, [eta0]), [x0])
        phase = np.exp(2j * np.pi * x0 * eta0)
        assert np.max(np.abs(lhs.samples - phase * rhs.samples)) < 1e-12

    def test_translation_isometry(self, grid256):
        f = Signal.from_generator(grid256, bump_generator(center=0.0, half_width=1.0))
        shifted = translate(f, [32 * grid256.space_step])
        assert abs(lp_norm(shifted, 2) - lp_norm(f, 2)) < 1e-12

    def test_rejects_offgrid_translation(self, gauss256):
        with pytest.raises(GridAlignmentError):
            translate(gauss256, [0.3 * gauss256.grid.space_step])

    @pytest.mark.parametrize("offsets", [
        (0,), (5,), (-7,), (16,), (-16,), (23,), (-40,),
        (0, 0), (3, -2), (0, 5), (-16, 1), (20, -20), (-3, 17),
    ])
    def test_zero_fill_shift_matches_roll_reference(self, offsets):
        rng = np.random.default_rng(11)
        shape = (16,) * len(offsets)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ref = vals
        for ax, s in enumerate(offsets):
            ref = np.roll(ref, s, axis=ax)
            src = np.arange(16) - s
            keep = ((src >= 0) & (src < 16)).reshape([16 if a == ax else 1
                                                      for a in range(len(offsets))])
            ref = np.where(keep, ref, 0.0)
        assert np.array_equal(_zero_fill_shift(vals, offsets), ref)


class TestDilate:
    def test_identity(self, gauss256):
        out = dilate(gauss256, 1.0)
        assert np.max(np.abs(out.samples - gauss256.samples)) < 1e-14

    def test_l2_scaling(self, grid512):
        f = Signal.from_generator(grid512, gaussian_generator())
        out = dilate(f, 2.0)
        assert abs(lp_norm(out, 2) - 2 ** -0.5 * lp_norm(f, 2)) < 1e-8

    def test_generator_reevaluation(self, grid256):
        f = Signal.from_generator(grid256, gaussian_generator())
        out = dilate(f, 2.0)
        x = grid256.space_axis()
        assert np.max(np.abs(out.samples - np.exp(-4.0 * np.pi * x ** 2))) < 1e-14

    def test_integer_reindex_matches_generator(self, grid256):
        f = Signal.from_generator(grid256, gaussian_generator())
        bare = Signal(grid256, f.samples.copy())
        a = dilate(f, 2.0)
        b = dilate(bare, 2.0)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_trig_resampling(self, grid256):
        f = Signal(grid256, Signal.from_generator(grid256, gaussian_generator()).samples)
        out = dilate(f, 1.5)
        x = grid256.space_axis()
        assert np.max(np.abs(out.samples - np.exp(-np.pi * (1.5 * x) ** 2))) < 1e-8

    def test_truncation_warning(self, grid256):
        f = Signal.from_generator(grid256, gaussian_generator())
        with pytest.warns(TruncationAliasingWarning):
            dilate(f, 1.0 / 8.0)

    def test_edge_mass_ratio(self):
        axis = np.array([-2.0, -1.0, 0.0, 1.0])
        # nodes with a coordinate of modulus above 1.5: row 0 or column 0
        assert _edge_mass_ratio(np.ones(4), axis, 1.5) == 1.0 / 4.0
        assert _edge_mass_ratio(np.ones((4, 4)), axis, 1.5) == 7.0 / 16.0
        assert _edge_mass_ratio(np.zeros((4, 4)), axis, 1.5) == 0.0

    def test_commutes_with_fourier(self, grid512):
        # (U_lam f)^ = lam^{-d} U_{1/lam} fhat
        f = Signal.from_generator(grid512, gaussian_generator())
        lam = 2.0
        lhs = fourier_transform(dilate(f, lam))
        rhs = dilate(fourier_transform(f), 1.0 / lam)
        assert np.max(np.abs(lhs.samples - rhs.samples / lam)) < 1e-8


class TestNorms:
    def test_gaussian_l2_closed_form(self, gauss256):
        # integral of exp(-2 pi t^2) is 2^{-1/2}
        assert abs(lp_norm(gauss256, 2) - 2 ** -0.25) < 1e-8

    def test_sup_norm(self, grid256):
        vals = np.zeros(256, dtype=complex)
        vals[10] = 3.0 - 4.0j
        assert lp_norm(Signal(grid256, vals), np.inf) == 5.0

    def test_inner_product_consistency(self, grid256):
        rng = np.random.default_rng(5)
        f = random_schwartz_signal(grid256, rng)
        assert abs(inner_product(f, f).real - lp_norm(f, 2) ** 2) < 1e-12 * lp_norm(f, 2) ** 2

    def test_weight_spec(self):
        w = WeightSpec(s1=2.0, s2=1.0)
        val = _weight_array(np.array([3.0]), np.array([4.0]), w, 1)
        assert val.shape == (1, 1) and abs(val[0, 0] - np.sqrt(10) * 17.0) < 1e-12


def test_corpus_is_concentrated(grid1024):
    for f in make_corpus(grid1024, 10):
        edge = np.abs(grid1024.space_axis()) > 0.9 * grid1024.half_width
        assert np.sum(np.abs(f.samples[edge]) ** 2) < 1e-16 * np.sum(np.abs(f.samples) ** 2)

