import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiolab.experiments import _freq_multiply
from fiolab.grid import (
    GridSpec, Signal, bracket, gaussian_generator, fourier_transform, lp_norm,
    smooth_step,
)
from fiolab.symbols import (
    PHASE_BUILDERS,
    Box,
    MonotonicityError,
    PhaseSpec,
    SymbolSpec,
    bump,
    conjugated_piece,
    dyadic_piece,
    growth_validate,
    make_diffeo,
    dot,
    nondeg_validate,
    phase_from_name,
    plateau,
    sg_validate,
    psi,
    psi_j,
    symbol_from_name,
    _negated_phase,
    _sample_points,
    _transposed_phase,
)


class TestCutoffs:
    def test_smooth_step_exact_ends(self):
        u = np.array([-1.0, 0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 2.0])
        s = smooth_step(u)
        assert s[0] == 0.0 and s[1] == 0.0
        assert s[5] == 1.0 and s[6] == 1.0
        assert 0 < s[3] < 1

    def test_plateau_exact_regions(self):
        r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        p = plateau(r)
        assert p[0] == 1.0 and p[1] == 1.0 and p[2] == 1.0
        assert p[4] == 0.0 and p[5] == 0.0
        assert 0 < p[3] < 1

    def test_partition_of_unity(self):
        eta = np.linspace(-32, 32, 20001)[:, None]
        total = sum(psi_j(j, eta) for j in range(6))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_psi_support(self):
        r = np.linspace(0, 8, 10001)
        vals = psi(r)
        assert np.all(vals[(r < 0.5) | (r > 2.0)] == 0.0)


class TestSgValidate:
    def test_model_symbol_passes(self):
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        rep = sg_validate(sym, Box.cube(1, 8.0, 8.0))
        assert rep.passed
        assert rep.constant < 10.0

    def test_superpolynomial_fails(self):
        sym = SymbolSpec(
            order=(0.0, 0.0),
            fn=lambda x, eta: np.exp(np.sum(np.asarray(x) ** 2, axis=-1)),
        )
        rep = sg_validate(sym, Box.cube(1, 8.0, 8.0))
        assert not rep.passed

    def test_dyadic_family_uniform(self):
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        consts = []
        for j in range(0, 7, 2):
            for k in range(0, 7, 2):
                piece = dyadic_piece(sym, j, k)
                rep = sg_validate(piece)
                consts.append(rep.constant)
        assert max(consts) / min(consts) < 4.0


class TestPhaseValidators:
    def test_linear_phase_exact(self):
        phase = phase_from_name("phase_linear")
        box = Box.cube(1, 4.0, 4.0)
        nd = nondeg_validate(phase, box)
        assert abs(nd.delta_min - 1.0) < 1e-12
        gw = growth_validate(phase, box)
        assert abs(gw.min_ratio_x - 1.0) < 1e-12
        assert abs(gw.min_ratio_eta - 1.0) < 1e-12

    def test_warped_phase_floor(self):
        phase = phase_from_name("phase_xphi(0.3)")
        dif = make_diffeo(0.3)
        box = Box.cube(1, 4.0, 4.0)
        nd = nondeg_validate(phase, box, samples=401)
        t = np.linspace(-4, 4, 30001)
        oracle = float(np.min(dif.dphi(t)))
        assert nd.passed
        assert oracle <= nd.delta_min < oracle + 5e-3

    def test_degenerate_phase_fails(self):
        phase = PhaseSpec(
            fn=lambda x, eta: 0.5 * np.sum(np.asarray(x) * np.asarray(eta), axis=-1) ** 2,
            grad_x=lambda x, eta: np.sum(np.asarray(x) * np.asarray(eta), axis=-1)[..., None]
            * np.asarray(eta),
            grad_eta=lambda x, eta: np.sum(np.asarray(x) * np.asarray(eta), axis=-1)[..., None]
            * np.asarray(x),
            mixed_hessian=lambda x, eta: (2.0 * np.asarray(x) * np.asarray(eta))[..., None],
        )
        nd = nondeg_validate(phase, Box.cube(1, 1.0, 1.0))
        assert not nd.passed

    def test_growth_fails_for_flat_phase(self):
        phase = PhaseSpec(
            fn=lambda x, eta: np.zeros(np.broadcast(
                np.asarray(x)[..., 0], np.asarray(eta)[..., 0]).shape),
            grad_x=lambda x, eta: np.zeros_like(np.asarray(eta, dtype=float)),
            grad_eta=lambda x, eta: np.zeros_like(np.asarray(x, dtype=float)),
            mixed_hessian=lambda x, eta: np.zeros(np.broadcast(
                np.asarray(x)[..., 0], np.asarray(eta)[..., 0]).shape + (1, 1)),
        )
        gw = growth_validate(phase, Box.cube(1, 32.0, 32.0))
        assert not gw.passed

    def test_phase_phix_growth(self):
        phase = phase_from_name("phase_phix(0.3)")
        gw = growth_validate(phase, Box.cube(1, 6.0, 6.0))
        assert gw.passed

    @pytest.mark.parametrize("name", ["phase_xphi(0.3)", "phase_phix(0.3)"])
    def test_hessian_consistency(self, name):
        # the analytic mixed Hessian against central differences of grad_x in eta
        phase = phase_from_name(name)
        X, E = _sample_points(Box.cube(1, 3.0, 3.0), 9)
        h = 1e-3
        fd = (np.asarray(phase.grad_x(X, E + h)) - np.asarray(phase.grad_x(X, E - h))) / (2 * h)
        H = np.asarray(phase.mixed_hessian(X, E), dtype=float)
        assert np.max(np.abs(fd.reshape(-1) - H.reshape(-1))) < 1e-6


class TestLpOperators:
    def test_telescoping(self):
        g = GridSpec(1, 8.0, 512)
        f = Signal.from_generator(g, gaussian_generator(0.7))
        total = np.zeros(g.shape, dtype=complex)
        for j in range(4):
            total += _freq_multiply(f, psi_j(j, g.freq_axis()[:, None])).samples
        assert np.max(np.abs(total - f.samples)) < 1e-10

    def test_band_mass(self):
        g = GridSpec(1, 8.0, 512)
        f = Signal.from_generator(g, gaussian_generator(0.5))
        piece = _freq_multiply(f, psi_j(2, g.freq_axis()[:, None]))
        F = fourier_transform(piece)
        eta = g.freq_axis()
        outside = (np.abs(eta) < 2.0) | (np.abs(eta) > 8.0)
        assert np.sum(np.abs(F.samples[outside]) ** 2) < 1e-24

    def test_low_pass_kills_chirp(self):
        g = GridSpec(1, 8.0, 512)
        from fiolab.grid import modulate
        f = modulate(Signal.from_generator(g, gaussian_generator(1.0)), [12.0])
        low = _freq_multiply(f, psi_j(0, g.freq_axis()[:, None]))
        assert lp_norm(low, 2) / lp_norm(f, 2) < 1e-8

    def test_space_cutoff(self):
        g = GridSpec(1, 8.0, 512)
        f = Signal.from_generator(g, gaussian_generator())
        x = g.space_axis()
        piece = f.samples * psi_j(1, x[:, None])
        assert np.all(piece[np.abs(x) < 0.5] == 0.0)


class TestDyadic:
    def test_partition_reconstructs_symbol(self):
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        x = np.linspace(-10, 10, 41)[:, None]
        eta = np.linspace(-10, 10, 41)[:, None]
        total = sum(dyadic_piece(sym, j, k)(x, eta)
                    for j in range(5) for k in range(5))
        assert np.max(np.abs(total - sym(x, eta))) < 1e-10

    def test_identity_at_equal_scales(self):
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        piece = dyadic_piece(sym, 3, 3)
        tilde, _ = conjugated_piece(piece, phase_from_name("phase_xphi(0.3)"), 3, 3)
        x = np.linspace(-20, 20, 31)[:, None]
        eta = np.linspace(-20, 20, 31)[:, None]
        assert np.max(np.abs(tilde(x, eta) - piece(x, eta))) < 1e-14

    def test_rescaled_derivative_exponent(self):
        # max |d_x d_eta sigma~_{j,k}| should scale like 2^{(j+k)(-d/2-1)}
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        phase = phase_from_name("phase_xphi(0.3)")
        logs, scales = [], []
        from fiolab.symbols import fd_mixed_derivative, _sample_points
        for (j, k) in [(2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (5, 5)]:
            piece = dyadic_piece(sym, j, k)
            tilde, _ = conjugated_piece(piece, phase, j, k)
            X, E = _sample_points(tilde.support_hint, 41)
            box = tilde.support_hint
            hx = max(h - l for l, h in zip(box.x_lo, box.x_hi)) / 256.0
            he = max(h - l for l, h in zip(box.eta_lo, box.eta_hi)) / 256.0
            der = fd_mixed_derivative(tilde.fn, X, E, (1,), (1,), he, hx)
            logs.append(np.log2(np.max(np.abs(der))))
            scales.append(j + k)
        slope = np.polyfit(scales, logs, 1)[0]
        assert abs(slope - (-1.5)) < 0.1

    def test_support_constant_finite(self):
        # where the conjugated piece lives, <lam eta> ~ 2^j and <x / lam> ~ 2^k
        # with lam = 2^{(j-k)/2}, both up to a constant below 8
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        phase = phase_from_name("phase_xphi(0.3)")
        for (j, k) in [(2, 0), (4, 2), (3, 3)]:
            tilde, _ = conjugated_piece(dyadic_piece(sym, j, k), phase, j, k)
            X, E = _sample_points(tilde.support_hint, 41)
            vals = np.abs(tilde(X, E))
            on = vals > 1e-12 * np.max(vals)
            assert np.any(on)
            lam = 2.0 ** ((j - k) / 2.0)
            re = bracket(lam * E[on]) / 2.0 ** j
            rx = bracket(X[on] / lam) / 2.0 ** k
            assert np.max(np.concatenate([re, 1.0 / re, rx, 1.0 / rx])) < 8.0

    def test_conjugated_hessian_uniform(self):
        # det of the mixed Hessian is invariant under the conjugation, so
        # the non-degeneracy floor is identical for all (j, k) and the
        # sup of the mixed entries stays within a factor 2
        phase = phase_from_name("phase_xphi(0.3)")
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        sups, floors = [], []
        for (j, k) in [(1, 1), (3, 1), (5, 2), (2, 5), (6, 6)]:
            piece = dyadic_piece(sym, j, k)
            tilde, ptilde = conjugated_piece(piece, phase, j, k)
            box = tilde.support_hint
            nd = nondeg_validate(ptilde, box, samples=21)
            X, E = _sample_points(box, 21)
            H = np.asarray(ptilde.mixed_hessian(X, E))
            sups.append(float(np.max(np.abs(H))))
            floors.append(nd.delta_min)
        assert max(sups) / min(sups) < 2.0
        assert min(floors) > 1e-3
        # floors depend only on whether the piece box meets the warp region
        assert max(floors) / min(floors) < 2.5


class TestDiffeo:
    def test_identity_at_zero(self):
        dif = make_diffeo(0.0)
        t = np.linspace(-2, 2, 101)
        assert np.max(np.abs(dif.phi(t) - t)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-0.5, 0.5))
    def test_monotone(self, c):
        dif = make_diffeo(c)
        t = np.linspace(-1, 2, 5001)
        assert np.min(dif.dphi(t)) > 0.0

    @pytest.mark.parametrize("c", [-0.5, 0.3, 0.5])
    def test_dphi_matches_finite_difference(self, c):
        """dphi, which the phases' gradients and mixed Hessians read, is the
        derivative of phi: central differences agree inside the bump and
        it is 1 outside."""
        dif = make_diffeo(c)
        t = np.linspace(-0.5, 1.5, 2001)
        h = 1e-5
        fd = (dif.phi(t + h) - dif.phi(t - h)) / (2 * h)
        assert np.max(np.abs(fd - dif.dphi(t))) < 1e-6
        outside = (t <= 0.0) | (t >= 1.0)
        assert np.all(dif.dphi(t[outside]) == 1.0)

    def test_rejects_folding(self):
        with pytest.raises(MonotonicityError):
            make_diffeo(0.7)

    def test_identity_outside_unit_interval(self):
        dif = make_diffeo(0.3)
        t = np.array([-3.0, -1.0, 0.02, 0.98, 1.0, 4.0])
        assert np.max(np.abs(dif.phi(t) - t)) == 0.0


class TestRegistry:
    def test_model_sg(self):
        sym = symbol_from_name("model_sg(-0.5,-0.25)")
        assert sym.order == (-0.5, -0.25)
        v = sym(np.array([[0.0]]), np.array([[1.0]]))
        assert abs(v[0] - 2 ** -0.25) < 1e-12

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            symbol_from_name("nope(1)")
        with pytest.raises(KeyError):
            phase_from_name("nope")

    def test_symbol_needs_fn_or_separable(self):
        with pytest.raises(ValueError, match="fn or separable"):
            SymbolSpec((0.0, 0.0))

    def test_cutoff_symbols(self):
        s1 = symbol_from_name("x_power_freq_cutoff(-0.25)")
        assert s1(np.array([[3.0]]), np.array([[0.5]]))[0] == pytest.approx(10 ** -0.125, rel=1e-12)
        assert s1(np.array([[3.0]]), np.array([[2.5]]))[0] == 0.0
        s2 = symbol_from_name("x_cutoff_eta_power(1.0)")
        assert s2(np.array([[0.5]]), np.array([[1.0]]))[0] == pytest.approx(np.sqrt(2), rel=1e-12)
        assert s2(np.array([[2.5]]), np.array([[1.0]]))[0] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_phase_phix_is_transposed_xphi(dim):
    """phase_phix(c), declared as the transpose of phase_xphi(c), is
    Phi = sum_i x_i phi(eta_i) bit for bit: fn, both gradients and the
    diagonal mixed Hessian equal the explicit formulas, and the declared
    eta warp is phi."""
    dif = make_diffeo(0.3)
    phase = phase_from_name("phase_phix(0.3)")
    rng = np.random.default_rng(dim)
    x = rng.uniform(-1.0, 2.0, (16, 1, dim))
    eta = rng.uniform(-1.0, 2.0, (1, 12, dim))
    hess = np.zeros((16, 12, dim, dim))
    for i in range(dim):
        hess[..., i, i] = np.broadcast_to(dif.dphi(eta)[..., i], (16, 12))
    assert np.array_equal(phase.fn(x, eta), dot(x, dif.phi(eta)))
    assert np.array_equal(phase.grad_x(x, eta), dif.phi(eta) * np.ones_like(x))
    assert np.array_equal(phase.grad_eta(x, eta), dif.dphi(eta) * x)
    assert np.array_equal(phase.mixed_hessian(x, eta), hess)
    assert phase.warp_x is None
    assert phase.warp_eta.__func__ is type(dif).phi and phase.warp_eta.__self__ == dif


DERIVED_PHASES = {"t": _transposed_phase, "neg": _negated_phase}


def _phase_by_label(label):
    """A registry phase with default arguments, or t(...) / neg(...) of one."""
    head, _, rest = label.partition("(")
    if head in DERIVED_PHASES:
        return DERIVED_PHASES[head](_phase_by_label(rest[:-1]))
    return PHASE_BUILDERS[label]()


@pytest.mark.parametrize("name", sorted(PHASE_BUILDERS) + [
    form.format(n) for form in ("t({})", "neg({})", "neg(t({}))", "t(neg({}))")
    for n in ("phase_xphi", "phase_phix")])
@pytest.mark.parametrize("dim", [1, 2])
def test_declared_warps_match_phase(name, dim):
    """A declared warp is what operators build kernels from instead of fn:
    Phi = psi(x).eta for warp_x = psi and x.chi(eta) for warp_eta = chi, on
    points across the warp's bump and outside it.  Every registry phase
    declares one, and transposed and negated phases carry it over."""
    phase = _phase_by_label(name)
    rng = np.random.default_rng(dim)
    x = rng.uniform(-1.0, 2.0, (64, 1, dim))
    eta = rng.uniform(-300.0, 300.0, (1, 48, dim))
    eta[0, :16] = rng.uniform(-1.0, 2.0, (16, dim))
    refs = ([dot(phase.warp_x(x), eta)] if phase.warp_x is not None else []) \
        + ([dot(x, phase.warp_eta(eta))] if phase.warp_eta is not None else [])
    assert refs
    for ref in refs:
        assert ref.shape == (64, 48)
        np.testing.assert_allclose(phase.fn(x, eta), ref, rtol=1e-14, atol=1e-14)
