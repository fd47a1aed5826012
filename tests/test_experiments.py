import numpy as np
import pytest

from fiolab.experiments import (
    DEFAULT_N_SWEEP,
    SharpnessResult,
    _lp_witnesses,
    classify_slope,
    default_chi,
    fl_growth_experiment,
    lp_threshold_experiment,
    m2_conjugation_consistency,
    main_theorem_boundedness_suite,
    make_fn,
    multiplier_growth_check,
    sharpness_grid,
    sharpness_m1_experiment,
    sharpness_m2_experiment,
    theorem_lp_frequency_experiment,
    threshold,
)
from fiolab.grid import (
    GridSpec,
    Signal,
    bracket,
    bump_generator,
    fourier_transform,
    lp_norm,
)
from fiolab.symbols import make_diffeo, plateau


class TestBasics:
    def test_threshold_formula(self):
        assert threshold(1.0) == -0.5
        assert threshold(2.0) == 0.0
        assert threshold(4.0) == -0.25
        assert threshold(np.inf) == -0.5

    def test_classify(self):
        assert classify_slope(0.2) == "unbounded"
        assert classify_slope(0.01) == "bounded"
        assert classify_slope(-0.03) == "bounded"
        assert classify_slope(0.07) == "inconclusive"

    def test_make_fn(self):
        g = sharpness_grid()
        chi = bump_generator()
        f0 = make_fn(0, chi, g)
        assert np.max(np.abs(f0.samples - chi(g.space_axis()))) == 0.0
        n64 = make_fn(64, chi, g)
        assert abs(lp_norm(n64, 2) - lp_norm(f0, 2)) < 1e-12
        # fhat_n is the translated fhat_0
        F0 = fourier_transform(f0).samples
        Fn = fourier_transform(n64).samples
        shift = int(round(64 / g.freq_step))
        rolled = np.roll(F0, shift)
        assert np.max(np.abs(Fn - rolled)) < 1e-10

    def test_make_fn_band_guard(self):
        g = GridSpec(1, 2.0, 256)  # nyquist 32
        with pytest.raises(ValueError):
            make_fn(64, bump_generator(), g)


class TestFlGrowth:
    def test_p1_growth(self):
        fit = fl_growth_experiment(1.0, (32, 64, 128))
        assert fit.slope >= 0.4
        assert fit.r_squared > 0.95

    def test_p2_control_flat(self):
        fit = fl_growth_experiment(2.0, (32, 64, 128))
        assert abs(fit.slope) < 0.05

    def test_identity_warp_flat(self):
        fit = fl_growth_experiment(1.0, (32, 64, 128), dif=make_diffeo(0.0))
        assert abs(fit.slope) < 1e-6

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            fl_growth_experiment(4.0, (8, 16))

    def test_2d_tensor_growth(self):
        g = GridSpec(2, 2.0, 256)  # nyquist 32
        fit = fl_growth_experiment(1.0, (4, 8, 16), grid=g, dim=2)
        # d = 2: expected asymptotic exponent 2 * (1/p - 1/2) = 1
        assert fit.slope > 0.55


class TestMultiplier:
    def test_zero_order_flat(self):
        fit = multiplier_growth_check(0.0, 1.0, (32, 64, 128))
        assert abs(fit.slope) < 0.05

    def test_negative_order(self):
        fit = multiplier_growth_check(-1.0, 1.0, (32, 64, 128))
        assert abs(fit.slope + 1.0) < 0.1


class TestLpThreshold:
    def test_p4_unbounded_at_zero(self):
        v = lp_threshold_experiment(0.0, 4.0, (8, 16, 32))
        assert v.expected == "unbounded"
        assert v.verdict == "unbounded"
        assert v.measured_slope > 0.1

    def test_p4_bounded_at_threshold(self):
        v = lp_threshold_experiment(-0.25, 4.0, (8, 16, 32))
        assert v.expected == "bounded"
        assert v.verdict == "bounded"

    def test_linear_control_flat(self):
        v = lp_threshold_experiment(0.0, 4.0, (8, 16, 32), c=0.0)
        assert abs(v.measured_slope) < 0.05
        v2 = lp_threshold_experiment(-0.25, 4.0, (8, 16, 32), c=0.0)
        assert abs(v2.measured_slope) < 0.05

    def test_monotone_in_order(self):
        slopes = [lp_threshold_experiment(m, 4.0, (8, 16, 32)).measured_slope
                  for m in (-0.5, -0.25, 0.0)]
        assert slopes[0] <= slopes[1] + 0.02 <= slopes[2] + 0.04

    def test_frequency_wrapper_guards_p(self):
        with pytest.raises(ValueError):
            theorem_lp_frequency_experiment(0.0, 2.0)

    def test_rows_schema(self):
        v = lp_threshold_experiment(0.0, 4.0, (8, 16))
        assert len(v.rows) == 6  # 2 sweep points x 3 witnesses
        n, name, nin, nout, r = v.rows[0]
        assert isinstance(name, str) and r == pytest.approx(nout / nin)

    @pytest.mark.parametrize("m,p", [(0.0, 4.0), (-0.5, 1.0)])
    def test_ratios_match_literal_kernel(self, m, p):
        """The experiment's operator, <x>^m sum_eta exp(2 pi i x phi(eta))
        G(eta) what(eta) deta, written out as one dense kernel."""
        g = GridSpec(1, 40.0, 512)
        chi, dif = default_chi(), make_diffeo(0.3)
        x, eta = g.space_axis(), g.freq_axis()
        xw = bracket(x[:, None]) ** m
        gcut = plateau(eta, 1.0, 2.0)
        v = lp_threshold_experiment(m, p, (2, 4, 8), grid=g, jobs=1)
        assert len(v.rows) == 9
        for n, name, nin, nout, r in v.rows:
            w = dict(_lp_witnesses(n, chi, dif, g))[name]
            what = fourier_transform(w).samples * gcut
            act = np.nonzero(np.abs(what) > 1e-15 * np.abs(what).max())[0]
            kern = np.exp(2j * np.pi * np.multiply.outer(x, dif.phi(eta[act])))
            Aw = Signal(g, xw * (kern @ (what[act] * g.freq_step)))
            assert nin == lp_norm(w, p)
            assert nout == pytest.approx(lp_norm(Aw, p), rel=1e-12, abs=0)


class TestSharpness:
    def test_m1_above_threshold_grows(self):
        res = sharpness_m1_experiment(-0.25, 1.0, (32, 64, 128))
        assert res.verdict.expected == "unbounded"
        assert res.verdict.measured_slope >= 0.15

    def test_m1_at_threshold_flat(self):
        res = sharpness_m1_experiment(-0.5, 1.0, (32, 64, 128))
        assert res.verdict.expected == "bounded"
        assert abs(res.verdict.measured_slope) <= 0.05

    def test_m1_p2_flat(self):
        res = sharpness_m1_experiment(0.0, 2.0, (32, 64, 128))
        assert abs(res.verdict.measured_slope) <= 0.05

    def test_m2_consistency(self):
        dev = m2_conjugation_consistency(-0.25, 1.0, n_sweep=(4, 6))
        assert dev < 1e-6

    def test_m2_matches_m1(self):
        r2, dev = sharpness_m2_experiment(-0.25, 1.0, (32, 64, 128),
                                          consistency_sweep=(4, 6))
        r1 = sharpness_m1_experiment(-0.25, 1.0, (32, 64, 128))
        assert dev < 1e-6
        assert r2.verdict.order == (0.0, -0.25)
        assert abs(r2.verdict.measured_slope - r1.verdict.measured_slope) < 1e-12


class TestBoundednessSuite:
    def test_threshold_orders_flat(self):
        rows = main_theorem_boundedness_suite(
            1.0, [(-0.5, -0.5)], (16, 32, 64))
        assert len(rows) == 2  # warped and linear phases
        for row in rows:
            assert row.passed, (row.order, row.phase_name, row.slope)


def test_grid_refinement_stability():
    # fitted slopes move by < 0.05 when N doubles
    sweep = (16, 32, 64)
    a = fl_growth_experiment(1.0, sweep, grid=GridSpec(1, 2.0, 2048))
    b = fl_growth_experiment(1.0, sweep, grid=GridSpec(1, 2.0, 4096))
    assert abs(a.slope - b.slope) < 0.05
    ma = multiplier_growth_check(1.0, 1.0, sweep, grid=GridSpec(1, 2.0, 2048))
    mb = multiplier_growth_check(1.0, 1.0, sweep, grid=GridSpec(1, 2.0, 4096))
    assert abs(ma.slope - mb.slope) < 0.05
