import tracemalloc

import numpy as np
import pytest

from fiolab import operators
from fiolab.experiments import (
    DEFAULT_N_SWEEP,
    _apply_columns,
    _freq_multiply,
    _lp_sweep,
    _lp_witnesses,
    _m1_operator_parts,
    _origin_bump,
    _mod_ratio,
    classify_slope,
    default_chi,
    fl_growth_experiment,
    lp_threshold_experiment,
    m2_conjugation_consistency,
    main_theorem_boundedness_suite,
    make_fn,
    multiplier_growth_check,
    self_dual_grid,
    sharpness_grid,
    sharpness_m1_experiment,
    sharpness_m2_experiment,
    sharpness_window,
    threshold,
)
from fiolab.gabor import Window
from fiolab.grid import (
    GridSpec,
    Signal,
    bracket,
    bump_generator,
    fourier_transform,
    gaussian_generator,
    lp_norm,
)
from fiolab.operators import OperatorHandle
from fiolab.symbols import _negated_phase, _starred_symbol, _transposed_phase, make_diffeo, \
    phase_from_name, plateau, symbol_from_name
from fiolab.util import fit_loglog


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
        fit = fl_growth_experiment(1.0, (4, 8, 16), grid=g)
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

    def test_rows_schema(self):
        v = lp_threshold_experiment(0.0, 4.0, (8, 16))
        assert len(v.rows) == 6  # 2 sweep points x 3 witnesses
        n, name, nin, nout, r = v.rows[0]
        assert isinstance(name, str) and r == pytest.approx(nout / nin)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("m,p", [(0.0, 4.0), (-0.5, 1.0)])
    def test_ratios_match_literal_kernel(self, m, p, warm):
        """The experiment's operator, <x>^m sum_eta exp(2 pi i x phi(eta))
        G(eta) what(eta) deta, written out as one dense kernel: from a cold
        cache, and warm, from the application another m's cell made."""
        g = GridSpec(1, 40.0, 512)
        chi, dif = default_chi(), make_diffeo(0.3)
        x, eta = g.space_axis(), g.freq_axis()
        xw = bracket(x[:, None]) ** m
        gcut = plateau(eta, 1.0, 2.0)
        _lp_sweep.cache_clear()
        if warm:
            lp_threshold_experiment(-0.25, 2.0, (2, 4, 8), grid=g)
        v = lp_threshold_experiment(m, p, (2, 4, 8), grid=g, jobs=1)
        assert len(v.rows) == 9
        for n, name, nin, nout, r in v.rows:
            w = dict(_all_witnesses(n, chi, dif, g))[name]
            what = fourier_transform(w).samples * gcut
            act = np.nonzero(np.abs(what) > 1e-15 * np.abs(what).max())[0]
            kern = np.exp(2j * np.pi * np.multiply.outer(x, dif.phi(eta[act])))
            Aw = Signal(g, xw * (kern @ (what[act] * g.freq_step)))
            assert nin == lp_norm(w, p)
            assert nout == pytest.approx(lp_norm(Aw, p), rel=1e-12, abs=0)


def _all_witnesses(n, chi, dif, g):
    """Sweep point n's witnesses in row order, the shared origin bump last."""
    return _lp_witnesses(n, chi, dif, g) + [("origin-bump", _origin_bump(chi, g))]


class TestSharpness:
    def test_m1_above_threshold_grows(self):
        res = sharpness_m1_experiment(-0.25, 1.0, (32, 64, 128))
        assert res.expected == "unbounded"
        assert res.measured_slope >= 0.15

    def test_m1_at_threshold_flat(self):
        res = sharpness_m1_experiment(-0.5, 1.0, (32, 64, 128))
        assert res.expected == "bounded"
        assert abs(res.measured_slope) <= 0.05

    def test_m1_p2_flat(self):
        res = sharpness_m1_experiment(0.0, 2.0, (32, 64, 128))
        assert abs(res.measured_slope) <= 0.05

    def test_m2_consistency(self):
        dev = m2_conjugation_consistency(-0.25, 1.0, n_sweep=(4, 6))
        assert dev < 1e-6

    def test_m2_matches_m1(self):
        r2, dev = sharpness_m2_experiment(-0.25, 1.0, (32, 64, 128))
        r1 = sharpness_m1_experiment(-0.25, 1.0, (32, 64, 128))
        assert dev < 1e-6
        assert r2.order == (0.0, -0.25)
        assert abs(r2.measured_slope - r1.measured_slope) < 1e-12


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


# ---------------------------------------------------------------------------
# One kernel application per operator, against the per-witness loop
# ---------------------------------------------------------------------------

SMALL = GridSpec(1, 2.0, 1024)  # sharpness box, Nyquist 128: n up to 64


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every operators._kernel_apply call made by an experiment, with its
    columns and result; the reference loops below run on the original."""
    calls = []
    orig = operators._kernel_apply

    def spy(phase, sym, grid, vals, adjoint=False, **kw):
        out = orig(phase, sym, grid, vals, adjoint=adjoint, **kw)
        calls.append((phase, sym, grid, vals, adjoint, out))
        return out

    monkeypatch.setattr(operators, "_kernel_apply", spy)
    return calls


def _fio1(phase, sym, f):
    """The type I operator of (phase, sym) on f, one column, unguarded."""
    return Signal(f.grid, OperatorHandle("fio_type1", sym, phase, f.grid).apply_columns(
        f.samples.ravel()))


def _assert_columns_match_loop(calls):
    """Each column of each batched call against the type I handle of its
    (phase, sym), or that handle's adjoint, on that column alone, at 1e-12
    relative."""
    for phase, sym, grid, vals, adjoint, out in calls:
        assert vals.ndim == 2 and out.shape == vals.shape
        op = OperatorHandle("fio_type1", sym, phase, grid)
        for j in range(vals.shape[1]):
            assert _rel(out[:, j], op.apply_columns(vals[:, j], adjoint)) <= 1e-12


def test_lp_threshold_one_application(kernel_calls):
    g = GridSpec(1, 40.0, 512)
    sweep = (2, 4, 8)
    _lp_sweep.cache_clear()
    v = lp_threshold_experiment(-0.25, 4.0, sweep, grid=g, jobs=2)
    calls = list(kernel_calls)
    # plain and warped per sweep point, plus the one shared origin bump
    assert len(calls) == 1 and calls[0][3].shape == (g.size, 2 * len(sweep) + 1)
    kernel_calls.clear()
    _assert_columns_match_loop(calls)

    chi, dif = default_chi(), make_diffeo(0.3)
    phase = phase_from_name("phase_phix(0.3)")
    sym = symbol_from_name("x_power_freq_cutoff(-0.25)")
    ref = [(n, name, lp_norm(w, 4.0),
            lp_norm(_fio1(phase, sym, w), 4.0))
           for n in sweep for name, w in _all_witnesses(n, chi, dif, g)]
    assert [r[:3] for r in v.rows] == [r[:3] for r in ref]
    for (_, _, _, nout, ratio), (_, _, nin, nout_ref) in zip(v.rows, ref):
        assert nout == pytest.approx(nout_ref, rel=1e-12, abs=0)
        assert ratio == pytest.approx(nout_ref / nin, rel=1e-12, abs=0)
    best = [max(r[3] / r[2] for r in ref if r[0] == n) for n in sweep]
    assert v.measured_slope == pytest.approx(fit_loglog(sweep, best).slope, abs=1e-12)


def test_lp_table_shares_one_application(kernel_calls):
    """The nine (p, m) cells of one sweep share one kernel application, and
    each equals a cold call for that cell alone; a second c adds a second."""
    g = GridSpec(1, 40.0, 512)
    sweep = (2, 4, 8)
    cells = [(p, m) for p in (1.0, 2.0, 4.0) for m in (0.0, -0.25, -0.5)]
    _lp_sweep.cache_clear()
    shared = {(p, m): lp_threshold_experiment(m, p, sweep, grid=g) for p, m in cells}
    assert len(kernel_calls) == 1
    for (p, m), v in shared.items():
        _lp_sweep.cache_clear()
        cold = lp_threshold_experiment(m, p, sweep, grid=g)
        assert v.rows == cold.rows
        assert v.measured_slope == cold.measured_slope
        assert v.verdict == cold.verdict

    _lp_sweep.cache_clear()
    kernel_calls.clear()
    for c in (0.3, 0.0, 0.3):
        lp_threshold_experiment(0.0, 4.0, sweep, c=c, grid=g)
    assert len(kernel_calls) == 2

    _, ins, outs = _lp_sweep(0.3, sweep, g)
    for s in (ins[0], outs[0], outs[-1]):
        with pytest.raises(ValueError):
            s.samples[0] = 0.0


def test_m1_one_application(kernel_calls):
    sweep = (16, 32, 64)
    res = sharpness_m1_experiment(-0.25, 1.0, sweep, grid=SMALL, jobs=2)
    calls = list(kernel_calls)
    assert len(calls) == 1 and calls[0][3].shape == (SMALL.size, len(sweep))
    kernel_calls.clear()
    _assert_columns_match_loop(calls)

    phase, sym = _m1_operator_parts(-0.25, 0.3)
    window = sharpness_window(SMALL)
    mult_up = bracket(SMALL.freq_points()).reshape(SMALL.shape) ** 0.25
    ref = []
    for n in sweep:
        w = _freq_multiply(make_fn(n, default_chi(), SMALL), mult_up)
        ref.append(_mod_ratio(_fio1(phase, sym, w), w, 1.0, window))
    np.testing.assert_allclose([r for *_, r in res.rows], ref, rtol=1e-12, atol=0)


def test_m1_application_traced_peak():
    """c12's application (N = 4096, the five witnesses of the default sweep
    as columns, 909 warped rows) is contracted against exponential tables,
    with no kernel block and one hi row per block: it traces about 2.6 MiB,
    under a bound of 3 MiB."""
    g = sharpness_grid()
    phase, sym = _m1_operator_parts(-0.5, 0.3)
    mult_up = bracket(g.freq_points()).reshape(g.shape) ** 0.5
    ws = [_freq_multiply(make_fn(n, default_chi(), g), mult_up) for n in DEFAULT_N_SWEEP]
    tracemalloc.start()
    try:
        _apply_columns(OperatorHandle("fio_type1", sym, phase, g), ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_m2_conjugation_one_application_each(kernel_calls):
    sweep = (4, 6)
    dev = m2_conjugation_consistency(-0.25, 1.0, n_sweep=sweep, jobs=2)
    calls = list(kernel_calls)
    assert [c[4] for c in calls] == [False, True]
    assert all(c[3].shape == (self_dual_grid().size, len(sweep)) for c in calls)
    kernel_calls.clear()
    _assert_columns_match_loop(calls)

    grid = self_dual_grid()
    window = Window.gaussian(grid, width=1.0)
    env = gaussian_generator(width=0.2).translated([0.5])
    phase, sym = _m1_operator_parts(-0.25, 0.3)
    bphase, bsym = _negated_phase(_transposed_phase(phase)), _starred_symbol(sym)
    mult_up = bracket(grid.freq_points()).reshape(grid.shape) ** 0.25
    devs = []
    for n in sweep:
        w = _freq_multiply(Signal.from_generator(grid, env.modulated([float(n)])), mult_up)
        wf = fourier_transform(w)
        r_direct = _mod_ratio(_fio1(phase, sym, w), w, 1.0, window)
        r_conj = _mod_ratio(OperatorHandle("fio_type2", bsym, bphase, wf.grid).apply(wf), wf,
                            1.0, window)
        devs.append(abs(r_conj - r_direct) / r_direct)
    # a difference of two ratios near 1, each matching at 1e-12 relative
    assert dev == pytest.approx(max(devs), abs=1e-12)


def test_boundedness_one_application_per_operator(kernel_calls):
    sweep = (16, 32)
    orders = [(-0.5, -0.5), (-0.25, 0.0)]
    rows = main_theorem_boundedness_suite(1.0, orders, sweep, grid=SMALL, jobs=2)
    calls = list(kernel_calls)
    assert len(calls) == len(orders) * 2
    assert all(c[3].shape == (SMALL.size, 2 * len(sweep)) for c in calls)
    kernel_calls.clear()
    _assert_columns_match_loop(calls)

    window = sharpness_window(SMALL)
    it = iter(rows)
    for m1, m2 in orders:
        mult_up = bracket(SMALL.freq_points()).reshape(SMALL.shape) ** (-m1)
        for cc in (0.3, 0.0):
            phase = phase_from_name(f"phase_xphi({cc})")
            sym = symbol_from_name(f"model_sg({m1},{m2})")
            best = []
            for n in sweep:
                fn = make_fn(n, default_chi(), SMALL)
                best.append(max(
                    _mod_ratio(_fio1(phase, sym, w), w, 1.0, window)
                    for w in (fn, _freq_multiply(fn, mult_up))))
            fit = fit_loglog(sweep, best)
            row = next(it)
            assert row.order == (m1, m2)
            assert row.slope == pytest.approx(fit.slope, abs=1e-12)
            assert row.flat_ratio == pytest.approx(fit.flat_ratio, rel=1e-12, abs=0)
