"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to stream them); the
assertions carry the same thresholds, so pytest green means the gate holds.
"""
import numpy as np
import pytest

from fiolab.experiments import (
    classify_slope,
    fl_growth_experiment,
    lp_threshold_experiment,
    m2_conjugation_consistency,
    multiplier_growth_check,
    sharpness_m1_experiment,
    threshold,
)
from fiolab.gabor import (
    GaborLattice,
    Window,
    dual_window,
    frame_bounds,
    frame_operator,
    gabor_analysis,
    gabor_synthesis,
    istft,
    stft,
    tight_window,
)
from fiolab.grid import (
    GridSpec,
    Signal,
    TruncationAliasingWarning,
    WeightSpec,
    gaussian_generator,
    lp_norm,
)
from fiolab.norms import (
    dilation_exponent_check,
    dilation_indices,
    gabor_norm_equivalence_check,
)
from fiolab.operators import (
    OperatorHandle,
    adjoint_identity_check,
    compose_leading,
    diag_decay_certify,
    dilation_conjugation_check,
    fourier_conjugation_check,
    gabor_matrix,
    op_norm_estimate,
    residuals_decay,
    schur_certify,
    transpose_identity_check,
)
from fiolab.symbols import LPFamily, phase_from_name, symbol_from_name

from conftest import make_corpus


def report(num: int, ok: bool, desc: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}")


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 16.0, 1024)


@pytest.fixture(scope="module")
def window(grid):
    return Window.gaussian(grid)


@pytest.fixture(scope="module")
def lattice(grid, window):
    return GaborLattice.for_grid(grid, 0.5, 0.5, window=window)


@pytest.fixture(scope="module")
def corpus(grid):
    return make_corpus(grid, 20, seed=101)


@pytest.fixture(scope="module")
def warped_phase():
    return phase_from_name("phase_xphi(0.3)")


def test_c01_stft_inversion(grid, window, corpus):
    worst = 0.0
    for f in corpus[:6]:
        rec = istft(stft(f, window), window)
        worst = max(worst, lp_norm(Signal(grid, rec.samples - f.samples), 2)
                    / lp_norm(f, 2))
    ok = worst < 1e-6
    report(1, ok, "STFT inversion round trip", f"max rel err {worst:.3e} < 1e-6")
    assert ok


def test_c02_stft_orthogonality(grid, window, corpus):
    worst = 0.0
    for f in corpus:
        V = stft(f, window)
        nrm = np.sqrt(np.sum(np.abs(V.values) ** 2) * grid.space_step * grid.freq_step)
        target = lp_norm(f, 2) * window.l2_norm
        worst = max(worst, abs(nrm - target) / target)
    ok = worst < 1e-8
    report(2, ok, "STFT orthogonality on 20-signal corpus",
           f"max rel dev {worst:.3e} < 1e-8")
    assert ok


def test_c03_gabor_frames(grid, window, lattice, corpus):
    gamma = dual_window(window, lattice)
    worst_rec = 0.0
    for f in corpus[:8]:
        rec = gabor_synthesis(gabor_analysis(f, window, lattice), gamma, lattice)
        worst_rec = max(worst_rec, lp_norm(Signal(grid, rec.samples - f.samples), 2)
                        / lp_norm(f, 2))
    fb = frame_bounds(window, lattice)
    h = tight_window(window, lattice, bounds=fb)
    worst_tight = 0.0
    for f in corpus[:8]:
        sh = frame_operator(f, h, lattice)
        worst_tight = max(worst_tight, lp_norm(Signal(grid, sh.samples - f.samples), 2)
                          / lp_norm(f, 2))
    ok = worst_rec < 1e-8 and worst_tight < 1e-8
    report(3, ok, "Gabor frame dual/tight windows",
           f"reconstruction {worst_rec:.3e}, tight-identity {worst_tight:.3e} < 1e-8")
    assert ok


def test_c04_norm_equivalence(grid, window, lattice, corpus):
    spreads = {}
    for p in (1.0, 2.0, np.inf):
        for w in (WeightSpec(0, 0), WeightSpec(1, 1)):
            rep = gabor_norm_equivalence_check(corpus[:8], p, p, w, window, lattice)
            spreads[(p, w.s1, w.s2)] = rep.spread
    worst = max(spreads.values())
    ok = worst < 10.0
    report(4, ok, "Gabor coefficient norm equivalence",
           f"max ratio spread {worst:.3f} < 10 over p in {{1,2,inf}}, s in {{0,1}}")
    assert ok


def test_c05_dilation_exponents():
    g = GridSpec(1, 20.0, 2048)
    f = Signal.from_generator(g, gaussian_generator())
    lams_up = [1, 2 ** 0.5, 2, 2 ** 1.5, 4, 2 ** 2.5, 8]
    lams_down = [1.0 / v for v in lams_up]
    msgs = []
    ok = True
    for p in (2.0, 1.0, np.inf):
        mu1, mu2 = dilation_indices(p)
        up = dilation_exponent_check(f, p, lams_up, x_stride=2)
        down = dilation_exponent_check(f, p, lams_down, x_stride=2)
        if p == 2.0:
            ok = ok and abs(up.slope + 0.5) < 0.02 and abs(down.slope + 0.5) < 0.02
            msgs.append(f"p=2 slopes {up.slope:+.4f}/{down.slope:+.4f} (=-1/2 +-0.02)")
        else:
            ok = ok and up.slope <= mu1 + 0.1
            ok = ok and abs(down.slope) <= -mu2 + 0.1
            msgs.append(f"p={p:g} up {up.slope:+.3f}<=mu1+0.1={mu1 + 0.1:+.2f}, "
                        f"down |{down.slope:+.3f}|<={-mu2 + 0.1:.2f}")
    report(5, ok, "dilation exponents", "; ".join(msgs))
    assert ok


def test_c06_almost_diagonalization(grid, window):
    sym = symbol_from_name("model_sg(-0.5,-0.5)")
    op = OperatorHandle("pseudo_kn", sym, None, grid)
    consts, schur_vals = [], []
    for rad in (16, 24):
        lat = GaborLattice.for_grid(grid, 0.5, 0.5, k_radius=rad, n_radius=rad)
        M = gabor_matrix(op, window, lat)
        consts.append(diag_decay_certify(M, -0.5, -0.5, 1, 1).constant)
        schur_vals.append(schur_certify(M).worst)
    c_stable = max(consts) / min(consts) < 2.0
    s_stable = max(schur_vals) / min(schur_vals) < 2.0
    neg = OperatorHandle("pseudo_kn", symbol_from_name("eta_power(1.0)"), None, grid)
    growth = []
    for rad in (16, 20, 24):
        lat = GaborLattice.for_grid(grid, 0.5, 0.5, k_radius=rad, n_radius=rad)
        growth.append(schur_certify(gabor_matrix(neg, window, lat)).worst)
    diverges = growth[0] < growth[1] < growth[2]
    ok = c_stable and s_stable and all(np.isfinite(consts)) and diverges
    report(6, ok, "almost diagonalization",
           f"C {consts[0]:.3f}->{consts[1]:.3f}, schur {schur_vals[0]:.2f}->"
           f"{schur_vals[1]:.2f} stable; order(+1,0) sums "
           f"{growth[0]:.1f}<{growth[1]:.1f}<{growth[2]:.1f} diverge")
    assert ok


def test_c07_structural_identities(grid, warped_phase, corpus):
    sym = symbol_from_name("model_sg(-0.5,-0.5)")
    pairs = list(zip(corpus[:4], corpus[4:8]))
    adj = adjoint_identity_check(warped_phase, sym, pairs)
    tra = transpose_identity_check(warped_phase, symbol_from_name("one"), pairs)
    fc = fourier_conjugation_check(warped_phase, sym, corpus[:4])
    gens = [Signal.from_generator(grid, gaussian_generator(0.9)),
            Signal.from_generator(grid, gaussian_generator(1.3))]
    fam = LPFamily(j_max=3)
    # the outer dilate(lam=2) leaves Nyquist-edge mass above its 1e-8
    # warning threshold; any other warning is re-emitted
    with pytest.warns(TruncationAliasingWarning, match=r"^dilate\(lam=2\.0\)"):
        dil = max(dilation_conjugation_check(sym, warped_phase, fam, j, k, gens)
                  for (j, k) in ((2, 0), (3, 1)))
    ok = max(adj, tra, fc, dil) < 1e-8
    report(7, ok, "FIO structural identities",
           f"adjoint {adj:.2e}, transpose {tra:.2e}, F-conj {fc:.2e}, "
           f"dilation-conj {dil:.2e} < 1e-8")
    assert ok


def test_c08_composition_leading_order(warped_phase):
    g = GridSpec(1, 6.0, 4096)
    curve = compose_leading(symbol_from_name("eta_power(1.0)"), warped_phase,
                            symbol_from_name("one"), [2, 3, 4], g)
    ok = residuals_decay(curve, 1.5)
    report(8, ok, "composition at leading order",
           "r_j = " + ", ".join(f"{j}:{r:.2e}" for j, r in curve)
           + " (>=1.5x decay per step)")
    assert ok


def test_c09_counterexample_growth():
    fit = fl_growth_experiment(1.0, (16, 32, 64, 128, 256))
    ctrl = fl_growth_experiment(2.0, (16, 32, 64, 128, 256))
    ok = 0.4 <= fit.slope <= 0.6 and fit.r_squared >= 0.95 \
        and abs(ctrl.slope) <= 0.05
    report(9, ok, "FL^p counterexample growth",
           f"p=1 slope {fit.slope:.3f} in [0.4,0.6], r2 {fit.r_squared:.4f} >= 0.95; "
           f"p=2 control {ctrl.slope:+.3f} in +-0.05")
    assert ok


def test_c10_multiplier_growth():
    fit = multiplier_growth_check(1.0, 1.0, (16, 32, 64, 128, 256))
    ok = 0.9 <= fit.slope <= 1.1
    report(10, ok, "multiplier growth", f"m=1, p=1 slope {fit.slope:.3f} in [0.9,1.1]")
    assert ok


def test_c11_lp_frequency_threshold():
    sweep = (8, 16, 32, 64, 128)
    hard = lp_threshold_experiment(0.0, 4.0, sweep)
    boundary = lp_threshold_experiment(-0.25, 4.0, sweep)
    ctrl = lp_threshold_experiment(0.0, 4.0, sweep, c=0.0)
    ok = hard.measured_slope >= 0.1 and boundary.measured_slope <= 0.05 \
        and abs(ctrl.measured_slope) <= 0.05
    report(11, ok, "L^p boundedness threshold (p=4)",
           f"m=0 slope {hard.measured_slope:.3f} >= 0.1; m=-1/4 slope "
           f"{boundary.measured_slope:+.3f} <= 0.05; linear control "
           f"{ctrl.measured_slope:+.3f}")
    assert ok


@pytest.fixture(scope="module")
def m1_results():
    sweep = (16, 32, 64, 128, 256)
    return {
        -0.25: sharpness_m1_experiment(-0.25, 1.0, sweep),
        -0.5: sharpness_m1_experiment(-0.5, 1.0, sweep),
    }


def test_c12_m1_sharpness(m1_results):
    above = m1_results[-0.25].verdict
    at = m1_results[-0.5].verdict
    ok = above.measured_slope >= 0.15 and abs(at.measured_slope) <= 0.05
    report(12, ok, "frequency-order sharpness",
           f"m1=-1/4 slope {above.measured_slope:.3f} >= 0.15; "
           f"m1=-1/2 slope {at.measured_slope:+.3f} <= 0.05")
    assert ok


def test_c13_m2_by_conjugation(m1_results):
    devs = [m2_conjugation_consistency(m, 1.0, n_sweep=(4, 6, 8))
            for m in (-0.25, -0.5)]
    dev = max(devs)
    # the conjugated operator reproduces the direct data, so the space-order
    # verdicts inherit the frequency-order fits
    v_above = classify_slope(m1_results[-0.25].verdict.measured_slope)
    v_at = classify_slope(m1_results[-0.5].verdict.measured_slope)
    ok = dev < 1e-6 and v_above == "unbounded" and v_at == "bounded"
    report(13, ok, "space-order sharpness via Fourier conjugation",
           f"conjugated/direct deviation {dev:.2e} < 1e-6; verdicts "
           f"({v_above}, {v_at}) match the frequency-order pair")
    assert ok


def test_c14_lp_threshold_table():
    sweep = (8, 16, 32, 64, 128)
    cells = {}
    ok = True
    for p in (1.0, 2.0, 4.0):
        for m in (0.0, -0.25, -0.5):
            v = lp_threshold_experiment(m, p, sweep)
            cells[(p, m)] = (v.expected, v.verdict)
            ok = ok and v.verdict == v.expected
    detail = "; ".join(f"p={p:g},m={m:+.2f}:{v[1]}" for (p, m), v in cells.items())
    report(14, ok, "L^p threshold verdict table", detail)
    assert ok


def test_c15_l2_norm_stability(warped_phase):
    vals = []
    for n in (2048, 4096):
        g = GridSpec(1, 16.0, n)
        op = OperatorHandle("fio_type1", symbol_from_name("one"), warped_phase, g)
        vals.append(op_norm_estimate(op).value)
    rel = abs(vals[1] - vals[0]) / vals[0]
    ok = rel < 0.05
    report(15, ok, "L^2 operator norm stability",
           f"norms {vals[0]:.4f} -> {vals[1]:.4f}, change {rel:.3%} < 5%")
    assert ok


def test_c16_determinism(tmp_path):
    from fiolab.config import parse_config
    from fiolab.runner import rerun_from_manifest, run_experiment

    cfg = parse_config("""\
[grid]
dim = 1
half_width = 2
samples_per_axis = 512

[experiment]
name = fl_growth
p = 1
n_sweep = 8,16,32
diffeo_c = 0.3
""")
    run_experiment("fl_growth", cfg, tmp_path / "a", seed=5)
    run_experiment("fl_growth", cfg, tmp_path / "b", seed=5)
    bytes_a = (tmp_path / "a" / "fl_growth.csv").read_bytes()
    same = bytes_a == (tmp_path / "b" / "fl_growth.csv").read_bytes()
    rerun_from_manifest(tmp_path / "a" / "fl_growth.manifest.json", tmp_path / "c")
    same_rerun = (tmp_path / "c" / "fl_growth.csv").read_bytes() == bytes_a
    ok = same and same_rerun
    report(16, ok, "manifest determinism",
           f"repeat-run identical: {same}; manifest re-run identical: {same_rerun}")
    assert ok
