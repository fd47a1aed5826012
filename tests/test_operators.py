import tracemalloc
from dataclasses import replace
from math import gcd

import numpy as np
import pytest

from fiolab import gabor, operators
from fiolab.experiments import (
    _lp_witnesses,
    default_chi,
    lp_witness_grid,
    make_fn,
    sharpness_grid,
)
from fiolab.gabor import GaborLattice, Window, gabor_atom
from fiolab.grid import (
    GridSpec,
    Signal,
    TruncationAliasingWarning,
    bracket,
    bump_generator,
    fourier_transform,
    gaussian_generator,
    inner_product,
    inverse_fourier,
    lp_norm,
    modulate,
    plateau,
    random_schwartz_signal,
)
from fiolab.operators import (
    DenseSizeError,
    OperatorHandle,
    adjoint_identity_check,
    apply_fio1,
    compose_leading,
    diag_decay_certify,
    dilation_conjugation_check,
    fourier_conjugation_check,
    gabor_matrix,
    leading_symbol,
    op_norm_estimate,
    residuals_decay,
    schur_certify,
    transpose_identity_check,
    kernel_path,
    _atom_table,
)
from fiolab.symbols import (
    PHASE_BUILDERS,
    SYMBOL_BUILDERS,
    Box,
    SymbolSpec,
    conjugated_piece,
    dyadic_piece,
    make_diffeo,
    phase_from_name,
    psi_j,
    symbol_from_name,
    _negated_phase,
    _starred_symbol,
    _transposed_phase,
    _transposed_symbol,
)

from conftest import make_corpus


@pytest.fixture(scope="module")
def g512():
    return GridSpec(1, 8.0, 512)


@pytest.fixture(scope="module")
def pair_corpus(g512):
    sigs = make_corpus(g512, 6, seed=40)
    return list(zip(sigs[:3], sigs[3:]))


class TestPseudoKN:
    def test_identity(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(41))
        out = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g512).apply(f)
        assert lp_norm(Signal(g512, out.samples - f.samples), 2) / lp_norm(f, 2) < 1e-12

    def test_multiplier_vs_fft_path(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(42))
        sym = symbol_from_name("eta_power(0.7)")
        fast = OperatorHandle("pseudo_kn", sym, None, g512).apply(f)  # separable path
        dense_sym = SymbolSpec(order=sym.order, fn=sym.fn)
        dense = OperatorHandle("pseudo_kn", dense_sym, None, g512).apply(f)
        assert np.max(np.abs(fast.samples - dense.samples)) < 1e-10
        F = fourier_transform(f)
        oracle = inverse_fourier(
            Signal(F.grid, F.samples * bracket(g512.freq_axis()[:, None]) ** 0.7))
        assert np.max(np.abs(fast.samples - oracle.samples)) < 1e-10

    def test_x_symbol_is_pointwise(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(43))
        sym = symbol_from_name("x_power(1.5)")
        out = OperatorHandle("pseudo_kn", sym, None, g512).apply(f)
        oracle = bracket(g512.space_axis()[:, None]) ** 1.5 * f.samples
        assert np.max(np.abs(out.samples - oracle)) < 1e-9 * np.max(np.abs(oracle))

    def test_linearity(self, g512):
        rng = np.random.default_rng(44)
        f, h = random_schwartz_signal(g512, rng), random_schwartz_signal(g512, rng)
        a, b = 0.7 - 0.1j, -1.2 + 0.4j
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        comb = Signal(g512, a * f.samples + b * h.samples)
        op = OperatorHandle("pseudo_kn", sym, None, g512)
        lhs = op.apply(comb).samples
        rhs = a * op.apply(f).samples + b * op.apply(h).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


class TestWeyl:
    @pytest.fixture(scope="class")
    def g128(self):
        return GridSpec(1, 8.0, 128)

    def test_identity(self, g128):
        f = random_schwartz_signal(g128, np.random.default_rng(45))
        out = OperatorHandle("pseudo_weyl", symbol_from_name("one"), None, g128).apply(f)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-10

    def test_x_independent_matches_kn(self, g128):
        f = random_schwartz_signal(g128, np.random.default_rng(46))
        sym = SymbolSpec(order=(1, 0),
                         fn=lambda x, eta: np.asarray(eta)[..., 0]
                         * np.ones(np.asarray(x).shape[:-1]))
        a = OperatorHandle("pseudo_weyl", sym, None, g128).apply(f)
        b = OperatorHandle("pseudo_kn", sym, None, g128).apply(f)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-10

    def test_real_symbol_self_adjoint(self, g128):
        rng = np.random.default_rng(47)
        f, g = random_schwartz_signal(g128, rng), random_schwartz_signal(g128, rng)
        sym = symbol_from_name("model_sg(1.0,1.0)")
        weyl = OperatorHandle("pseudo_weyl", sym, None, g128)
        Af = weyl.apply(f)
        Ag = weyl.apply(g)
        lhs = inner_product(Af, g)
        rhs = inner_product(f, Ag)
        assert abs(lhs - rhs) <= 1e-8 * lp_norm(f, 2) * lp_norm(g, 2) * 10


class TestFio:
    def test_linear_phase_identity(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(48))
        phase = phase_from_name("phase_linear")
        out = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g512).apply(f)
        assert lp_norm(Signal(g512, out.samples - f.samples), 2) / lp_norm(f, 2) < 1e-10
        out2 = OperatorHandle("fio_type2", symbol_from_name("one"), phase, g512).apply(f)
        assert lp_norm(Signal(g512, out2.samples - f.samples), 2) / lp_norm(f, 2) < 1e-10

    def test_linear_phase_multiplier(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(49))
        phase = phase_from_name("phase_linear")
        sym = symbol_from_name("eta_power(-1.0)")
        out = OperatorHandle("fio_type1", sym, phase, g512).apply(f)
        oracle = OperatorHandle("pseudo_kn", sym, None, g512).apply(f)
        assert np.max(np.abs(out.samples - oracle.samples)) < 1e-10

    def test_composition_operator(self):
        # warped phase with unit symbol acts as f o phi
        g = GridSpec(1, 4.0, 512)
        dif = make_diffeo(0.3)
        phase = phase_from_name("phase_xphi(0.3)")
        gen = gaussian_generator(0.8).translated([0.4])
        f = Signal.from_generator(g, gen)
        op = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g)
        out = op.apply_columns(f.samples.ravel())
        oracle = Signal.from_generator(g, gen.composed((dif.phi,)))
        err = lp_norm(Signal(g, out - oracle.samples), 2) / lp_norm(f, 2)
        assert err < 1e-8

    def test_type2_multiplier(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(50))
        phase = phase_from_name("phase_linear")
        sym = SymbolSpec(order=(0, 0),
                         fn=lambda x, eta: np.exp(1j * np.asarray(eta)[..., 0])
                         * np.ones(np.asarray(x).shape[:-1]))
        out = OperatorHandle("fio_type2", sym, phase, g512).apply(f)
        F = fourier_transform(f)
        oracle = inverse_fourier(Signal(
            F.grid, np.conj(np.exp(1j * g512.freq_axis())) * F.samples))
        assert np.max(np.abs(out.samples - oracle.samples)) < 1e-10

    def test_adjoint_identity(self, g512, pair_corpus):
        phase = phase_from_name("phase_xphi(0.3)")
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        assert adjoint_identity_check(phase, sym, pair_corpus) < 1e-12

    def test_transpose_identity(self, g512, pair_corpus):
        for pname in ("phase_linear", "phase_xphi(0.3)"):
            phase = phase_from_name(pname)
            res = transpose_identity_check(phase, symbol_from_name("one"), pair_corpus)
            assert res < 1e-8

    def test_fourier_conjugation(self, g512, pair_corpus):
        corpus = [f for f, _ in pair_corpus]
        phase = phase_from_name("phase_xphi(0.3)")
        for sname in ("one", "x_cutoff_eta_power(-0.5)"):
            res = fourier_conjugation_check(phase, symbol_from_name(sname), corpus)
            assert res < 1e-8

    def test_dilation_conjugation(self):
        g = GridSpec(1, 16.0, 1024)
        corpus = [Signal.from_generator(g, gaussian_generator(0.9)),
                  Signal.from_generator(g, gaussian_generator(1.4))]
        phase = phase_from_name("phase_xphi(0.3)")
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        # the outer dilate(lam=2) of j - k = 2 leaves Nyquist-edge mass above
        # its 1e-8 warning threshold; any other warning is re-emitted
        with pytest.warns(TruncationAliasingWarning, match=r"^dilate\(lam=2\.0\)"):
            for (j, k) in [(2, 0), (3, 1), (2, 2)]:
                res = dilation_conjugation_check(sym, phase, j, k, corpus)
                assert res < 1e-8

    def test_aliasing_guard_warns(self):
        from fiolab.grid import TruncationAliasingWarning
        g = GridSpec(1, 2.0, 128)  # nyquist 16
        f = modulate(Signal.from_generator(g, gaussian_generator(0.3)), [10.0])
        phase = phase_from_name("phase_phix(0.0)")
        big = SymbolSpec(order=(0, 0),
                         fn=lambda x, eta: np.ones(np.broadcast(
                             np.asarray(x)[..., 0], np.asarray(eta)[..., 0]).shape))
        stretch =phase_from_name("phase_linear")
        steep = type(stretch)(
            fn=lambda x, eta: 2.0 * np.sum(np.asarray(x) * np.asarray(eta), axis=-1),
            grad_x=lambda x, eta: 2.0 * np.asarray(eta, dtype=float),
            grad_eta=lambda x, eta: 2.0 * np.asarray(x, dtype=float),
            mixed_hessian=stretch.mixed_hessian,
        )
        with pytest.warns(TruncationAliasingWarning):
            OperatorHandle("fio_type1", big, steep, g).apply(f)

    def test_apply_fio1_is_the_guarded_handle(self, g512):
        f = random_schwartz_signal(g512, np.random.default_rng(53))
        phase, sym = phase_from_name("phase_xphi(0.3)"), symbol_from_name("model_sg(-0.5,-0.5)")
        ref = OperatorHandle("fio_type1", sym, phase, g512).apply(f)
        assert np.array_equal(apply_fio1(phase, sym, f).samples, ref.samples)


class TestComposition:
    def test_multiplier_case_exact(self):
        g = GridSpec(1, 4.0, 512)
        phase = phase_from_name("phase_linear")
        p = symbol_from_name("eta_power(1.0)")
        sigma = symbol_from_name("eta_power(-0.5)")
        curve = compose_leading(p, phase, sigma, [1, 2, 3], g)
        assert all(r < 1e-10 for _, r in curve)

    def test_residual_decays(self):
        g = GridSpec(1, 6.0, 2048)
        phase = phase_from_name("phase_xphi(0.3)")
        curve = compose_leading(symbol_from_name("eta_power(1.0)"), phase,
                                symbol_from_name("one"), [2, 3], g)
        assert residuals_decay(curve, 1.5)

    def test_space_cutoff_vanishing(self):
        # composing A_{j,k} with the psi_l space cutoff: the leading symbol
        # sigma_{j,k}(x,eta) psi_l(grad_eta Phi) vanishes identically once
        # |k - l| exceeds the overlap width (grad_eta Phi is comparable to x)
        phase = phase_from_name("phase_xphi(0.3)")
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        x = np.linspace(-80, 80, 2001)[:, None, None]
        eta = np.linspace(-8, 8, 41)[None, :, None]
        l = 3
        for k in range(0, 7):
            piece = dyadic_piece(sym, 2, k)
            ge = np.asarray(phase.grad_eta(x, eta))
            composed = piece(x, eta) * psi_j(l, ge)
            if abs(k - l) >= 2:
                assert np.max(np.abs(composed)) == 0.0
        # operator-level echo: applying the pieces to a psi_l-localized
        # input leaves only cutoff-tail leakage far from the diagonal
        g = GridSpec(1, 128.0, 4096)
        u = modulate(Signal.from_generator(g, gaussian_generator(20.0)), [4.0])
        ul = Signal(g, u.samples * psi_j(l, g.space_axis()[:, None]))
        norms = {k: lp_norm(Signal(g, OperatorHandle(
            "fio_type1", dyadic_piece(sym, 2, k), phase, g).apply_columns(ul.samples.ravel())), 2)
                 for k in range(0, 6)}
        peak = max(norms.values())
        assert max(norms, key=norms.get) == l
        for k, v in norms.items():
            if abs(k - l) > 2:
                assert v < 1e-4 * peak


def _dense_gram(op, w, lat):
    """The dense Gram product gabor_matrix ran before the Walnut-fiber fold,
    without the zero floor: (atoms.conj() @ outs) dx^d."""
    g = w.grid
    atoms, _, _ = _atom_table(w, lat)
    outs = op.apply_columns(atoms.T)
    return (atoms.conj() @ outs) * g.space_step ** g.dim


FOLD_LATTICES = {
    # (grid, alpha, beta, k_radius, n_radius)
    "coprime": (GridSpec(1, 8.0, 128), 0.5, 3 / 16, 4, 11),
    "past_period": (GridSpec(1, 8.0, 128), 0.5, 0.5, 4, 40),
    "d2": (GridSpec(2, 2.0, 16), 0.5, 0.5, 2, 1),
    "d2_coprime": (GridSpec(2, 2.0, 16), 0.5, 0.75, 1, 2),
}
FOLD_OPERATORS = [("pseudo_kn", None), ("fio_type1", "phase_xphi(0.3)"),
                  ("fio_type2", "phase_xphi(0.3)"), ("pseudo_weyl", None)]


def _fold_case(lname, kind="pseudo_kn", pname=None):
    g, alpha, beta, kr, nr = FOLD_LATTICES[lname]
    w = Window.gaussian(g, width=0.5)
    lat = GaborLattice.for_grid(g, alpha, beta, k_radius=kr, n_radius=nr)
    phase = phase_from_name(pname) if pname else None
    op = OperatorHandle(kind, symbol_from_name("model_sg(-0.5,-0.5)"), phase, g)
    return op, w, lat


def _period_samples(lat):
    n = lat.grid.samples_per_axis
    return n // gcd(n, lat.n_step)


# Largest |fold - dense Gram product| over the peak modulus.  The fold takes
# each tone at its sample nearest x = 0; measured over FOLD_OPERATORS it is
# 1.1e-15 on "d2" and below 5e-16 on "coprime" and "d2_coprime".  On
# "past_period" the n range runs to 40, past the band, and the atoms'
# tones carry phase arguments near 1000 rad into the operator outputs that
# both products read: 1.6e-14 there (5.5e-14 with the first period's tones).
FOLD_TOL = {"coprime": 2e-15, "past_period": 3e-14, "d2": 2e-15, "d2_coprime": 2e-15}


class TestFoldedGram:
    """gabor_matrix folds <Op g_i, g_i'> onto the Walnut fibers of the tone
    period P = N / gcd(N, n_step); it must match the dense Gram product at
    FOLD_TOL of the peak entry on every lattice, and keep the same entries
    past the zero floor."""

    def test_lattice_periods(self):
        periods = {name: _period_samples(_fold_case(name)[2]) for name in FOLD_LATTICES}
        assert periods == {"coprime": 128, "past_period": 16, "d2": 8, "d2_coprime": 16}
        assert len(_fold_case("past_period")[2].n_index) > 5 * periods["past_period"]

    @pytest.mark.parametrize("kind,pname", FOLD_OPERATORS)
    @pytest.mark.parametrize("lname", sorted(FOLD_LATTICES))
    def test_matches_dense_gram(self, lname, kind, pname):
        op, w, lat = _fold_case(lname, kind, pname)
        ref = _dense_gram(op, w, lat)
        M = gabor_matrix(op, w, lat)
        assert M.entries.shape == (lat.num_atoms, lat.num_atoms)
        assert np.max(np.abs(M.entries - ref)) <= FOLD_TOL[lname] * np.max(np.abs(ref))

    @pytest.mark.parametrize("lname", sorted(FOLD_LATTICES))
    def test_column_blocks(self, lname, monkeypatch):
        """Blocks of 7 columns, the last one short, give the same matrix."""
        op, w, lat = _fold_case(lname, "fio_type1", "phase_xphi(0.3)")
        d = lat.grid.dim
        nk, nn = len(lat.k_index) ** d, len(lat.n_index) ** d
        per_column = 16 * nk * max(_period_samples(lat) ** d, nn)
        monkeypatch.setattr(gabor, "_FOLD_BLOCK_BYTES", 7 * per_column)
        assert lat.num_atoms % 7 and lat.num_atoms > 14
        ref = _dense_gram(op, w, lat)
        M = gabor_matrix(op, w, lat)
        assert np.max(np.abs(M.entries - ref)) <= FOLD_TOL[lname] * np.max(np.abs(ref))

    @pytest.mark.parametrize("lname", sorted(FOLD_LATTICES) + ["cli_default"])
    def test_zero_floor_keeps_dense_entries(self, lname):
        """The floored fold keeps exactly the entries that the floored dense
        Gram product keeps.  On FOLD_LATTICES no entry falls below the floor;
        the `fiolab matrix` default lattice (N = 1024, L = 16, radius 8)
        keeps 45201 of its 83521, where the fold's error is 1.1e-15 of the
        peak, below ZERO_FLOOR."""
        if lname == "cli_default":
            g = GridSpec(1, 16.0, 1024)
            w = Window.gaussian(g)
            lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=8, n_radius=8)
            op = OperatorHandle("pseudo_kn", symbol_from_name("model_sg(-0.5,-0.5)"), None, g)
        else:
            op, w, lat = _fold_case(lname, "fio_type1", "phase_xphi(0.3)")
        ref = _dense_gram(op, w, lat)
        kept = np.abs(ref) >= operators.ZERO_FLOOR * np.max(np.abs(ref))
        M = gabor_matrix(op, w, lat)
        assert np.array_equal(M.entries != 0, kept)
        if lname == "cli_default":
            assert np.count_nonzero(kept) == 45201


def _diag_decay_reference(M, m1, m2, N1=1, N2=1):
    """The ratios of diag_decay_certify before its envelope was factored:
    dense num_atoms^2 brackets, powers and envelope."""
    kb = bracket(M.k_phys)
    nb = bracket(M.n_phys)
    dk = M.k_phys[:, None, :] - M.k_phys[None, :, :]
    dn = M.n_phys[:, None, :] - M.n_phys[None, :, :]
    decay = bracket(dn) ** (-2 * N1) * bracket(dk) ** (-2 * N2)
    envelope = np.outer(kb ** m2, nb ** m1) * decay
    return np.abs(M.entries) / envelope


def _decay_report(ratios):
    """(constant, worst) of a ratio array, as the certificates report them."""
    i = int(np.argmax(ratios))
    return float(ratios.ravel()[i]), (i // len(ratios), i % len(ratios))


class TestFactoredDecay:
    """diag_decay_certify builds its envelope from (k', k) and (n', n)
    bracket tables; every ratio, and so the constant and the worst index,
    equals the dense form's bit for bit."""

    @pytest.mark.parametrize("args", [(-0.5, -0.5, 1, 1), (0.7, -1.3, 2, 1),
                                      (0.0, 0.0, 1, 3)])
    @pytest.mark.parametrize("lname", ["coprime", "d2", "d2_coprime"])
    def test_equal_to_dense_envelope(self, lname, args, monkeypatch):
        seen = []
        block_ratios = operators._block_ratios

        def spy(block, envelope):
            ratios = block_ratios(block, envelope)
            seen.append(ratios.reshape(block.shape))
            return ratios

        monkeypatch.setattr(operators, "_block_ratios", spy)
        op, w, lat = _fold_case(lname)
        M = gabor_matrix(op, w, lat)
        # three k' rows per block, so that every lattice has several blocks
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", _k_rows_per_block(lat, 3))
        ref = _diag_decay_reference(M, *args)
        rep = diag_decay_certify(M, *args)
        assert (rep.constant, rep.worst) == _decay_report(ref)
        assert len(seen) > 1
        assert np.array_equal(np.concatenate(seen), ref)


def _schur_reference(M):
    """The four sums of schur_certify before it walked row blocks: dense
    num_atoms^2 reductions."""
    a = np.abs(M.entries)
    nk = len(M.lattice.k_index) ** M.lattice.grid.dim
    nn = len(M.lattice.n_index) ** M.lattice.grid.dim
    b = a.reshape(nk, nn, nk, nn)
    mixed_a = np.max(np.sum(np.max(np.sum(b, axis=2), axis=0), axis=0))
    mixed_b = np.max(np.sum(np.max(np.sum(b, axis=0), axis=1), axis=1))
    return (float(np.max(np.sum(a, axis=1))), float(np.max(np.sum(a, axis=0))),
            float(mixed_a), float(mixed_b))


def _k_rows_per_block(lat, k_rows):
    """A ROW_BLOCK_BYTES that gives blocks of k_rows whole k' rows."""
    return k_rows * len(lat.n_index) ** lat.grid.dim * lat.num_atoms * 16


# one k' row per block (the floor of _row_blocks); seven, which leaves a short
# last block on every FOLD_LATTICES lattice; and the whole matrix
ROW_BLOCKS = {"one": 1, "seven": 7, "whole": None}


def _block_bytes(lat, blocks):
    k_rows = ROW_BLOCKS[blocks] or len(lat.k_index) ** lat.grid.dim
    return _k_rows_per_block(lat, k_rows)


class TestRowBlocks:
    """The zero floor and both certificates walk the entries in row blocks of
    whole k' rows; at one k' row, an odd count and the whole matrix they
    equal the dense num_atoms^2 forms bit for bit, NaN entries included."""

    def test_blocks_cover_whole_k_rows(self, monkeypatch):
        op, w, lat = _fold_case("coprime")
        M = gabor_matrix(op, w, lat)
        nn = len(lat.n_index)
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", _k_rows_per_block(lat, 4))
        blocks = list(operators._row_blocks(M))
        assert [b.start for b in blocks] == list(range(0, M.num_atoms, 4 * nn))
        assert blocks[-1] == slice(8 * nn, M.num_atoms) and len(lat.k_index) == 9
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", 1)
        assert len(list(operators._row_blocks(M))) == len(lat.k_index)

    @pytest.mark.parametrize("blocks", sorted(ROW_BLOCKS))
    @pytest.mark.parametrize("lname", sorted(FOLD_LATTICES))
    def test_zero_floor(self, lname, blocks, monkeypatch):
        op, w, lat = _fold_case(lname, "fio_type1", "phase_xphi(0.3)")
        monkeypatch.setattr(operators, "ZERO_FLOOR", 0.0)
        ref = gabor_matrix(op, w, lat).entries
        floored = ref.copy()
        mag = np.abs(floored)
        floored[mag < 1e-3 * mag.max()] = 0.0
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", _block_bytes(lat, blocks))
        monkeypatch.setattr(operators, "ZERO_FLOOR", 1e-3)
        M = gabor_matrix(op, w, lat)
        assert np.count_nonzero(M.entries) < np.count_nonzero(ref)
        assert np.array_equal(M.entries, floored)

    @pytest.mark.parametrize("blocks", sorted(ROW_BLOCKS))
    @pytest.mark.parametrize("lname", sorted(FOLD_LATTICES))
    def test_certificates_equal_dense(self, lname, blocks, monkeypatch):
        op, w, lat = _fold_case(lname, "fio_type1", "phase_xphi(0.3)")
        M = gabor_matrix(op, w, lat)
        entries = M.entries.copy()
        entries[1, 2] = entries[-1, 0] = np.nan
        M_nan = replace(M, entries=entries)
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", _block_bytes(lat, blocks))
        for A in (M, M_nan):
            for args in [(-0.5, -0.5, 1, 1), (0.7, -1.3, 2, 1)]:
                rep = diag_decay_certify(A, *args)
                assert repr((rep.constant, rep.worst)) == \
                    repr(_decay_report(_diag_decay_reference(A, *args)))
            sc = schur_certify(A)
            got = (sc.sup_row, sc.sup_col, sc.mixed_a, sc.mixed_b)
            assert repr(got) == repr(_schur_reference(A))
        assert diag_decay_certify(M_nan, -0.5, -0.5).worst == (1, 2)

    def test_worst_is_first_of_ties_across_blocks(self, monkeypatch):
        """Equal largest ratios in two blocks: the first one in row order."""
        op, w, lat = _fold_case("coprime")
        M = gabor_matrix(op, w, lat)
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", 1)
        nn = len(lat.n_index)
        entries = np.zeros_like(M.entries)
        # <k'> = <k> and <n> = <n'> on the diagonal: both ratios are equal
        entries[2 * nn + 3, 2 * nn + 3] = entries[-2 * nn - 4, -2 * nn - 4] = 1.0
        rep = diag_decay_certify(replace(M, entries=entries), 0.0, 0.0)
        assert rep.worst == (2 * nn + 3, 2 * nn + 3)


BENCH_GRID = GridSpec(1, 16.0, 1024)


@pytest.fixture(scope="class")
def bench_matrix():
    """The 2401-atom matrix of the `fiolab matrix` benchmark."""
    lat = GaborLattice.for_grid(BENCH_GRID, 0.5, 0.5, k_radius=24, n_radius=24)
    op = OperatorHandle("pseudo_kn", symbol_from_name("model_sg(-0.5,-0.5)"), None,
                        BENCH_GRID)
    M = gabor_matrix(op, Window.gaussian(BENCH_GRID), lat)
    assert M.num_atoms == 2401
    return M


class TestTracedPeaks:
    """Each pass over a finished matrix holds at most a tenth of |entries|
    above the matrix (whole-array passes held 0.5 to 2 entries arrays)."""

    @pytest.mark.parametrize("step", ["decay", "schur", "csv", "binary"])
    def test_traced_peak(self, bench_matrix, step, tmp_path):
        from fiolab import persist
        M = bench_matrix
        run = {"decay": lambda: diag_decay_certify(M, -0.5, -0.5, 1, 1),
               "schur": lambda: schur_certify(M),
               "csv": lambda: persist.matrix_to_csv(tmp_path / "m.csv", M),
               "binary": lambda: persist.matrix_to_binary(tmp_path / "m.bin", M)}[step]
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * M.entries.nbytes
        if step == "decay":
            ref = _diag_decay_reference(M, -0.5, -0.5, 1, 1)
            assert (out.constant, out.worst) == _decay_report(ref)


@pytest.fixture(scope="module")
def small_matrix_setup():
    g = GridSpec(1, 16.0, 512)
    w = Window.gaussian(g)
    lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=8, n_radius=8)
    return g, w, lat


class TestGaborMatrix:
    @pytest.mark.parametrize("g", [GridSpec(1, 4.0, 64), GridSpec(2, 2.0, 16)])
    def test_atom_table_rows_are_atoms(self, g):
        w = Window.gaussian(g, width=0.5)
        lat = GaborLattice.for_grid(g, 0.5, 1.0, k_radius=2, n_radius=1)
        atoms, kp, npos = _atom_table(w, lat)
        assert atoms.shape == (lat.num_atoms, g.size)
        i = 0
        for k in lat.k_tuples():
            for n in lat.n_tuples():
                ref = gabor_atom(w, lat, k, n).samples.ravel()
                assert np.max(np.abs(atoms[i] - ref)) <= 1e-13
                assert np.array_equal(kp[i], lat.alpha * np.asarray(k, dtype=float))
                assert np.array_equal(npos[i], lat.beta * np.asarray(n, dtype=float))
                i += 1

    def test_identity_gram(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g)
        M = gabor_matrix(op, w, lat)
        i = M.num_atoms // 2
        assert abs(M.entries[i, i] - 1.0) < 1e-10
        # Gram symmetry
        assert np.max(np.abs(M.entries - M.entries.conj().T)) < 1e-10

    def test_spot_check_entries(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        op = OperatorHandle("pseudo_kn", sym, None, g)
        M = gabor_matrix(op, w, lat)
        rng = np.random.default_rng(51)
        nn = len(lat.n_index)
        for _ in range(6):
            i, j = rng.integers(0, M.num_atoms, size=2)
            ki, ni = int(M.k_phys[i, 0] / 0.5), int(M.n_phys[i, 0] / 0.5)
            kj, nj = int(M.k_phys[j, 0] / 0.5), int(M.n_phys[j, 0] / 0.5)
            direct = inner_product(
                op.apply(gabor_atom(w, lat, [kj], [nj])),
                gabor_atom(w, lat, [ki], [ni]))
            assert abs(M.entries[i, j] - direct) < 1e-10

    def test_multiplier_concentration(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        op = OperatorHandle("pseudo_kn", symbol_from_name("eta_power(-1.0)"), None, g)
        M = gabor_matrix(op, w, lat)
        nn = len(lat.n_index)
        nk = len(lat.k_index)
        b = M.entries.reshape(nk, nn, nk, nn)
        # k-concentration: entries fall off the k-diagonal at the window's
        # Gaussian rate (the multiplier itself moves no space content)
        kk = np.arange(nk)

        def off(dk):
            mask = np.abs(kk[:, None] - kk[None, :]) >= dk
            return np.abs(b[mask.nonzero()[0], :, mask.nonzero()[1], :]).max()

        peak = np.abs(b).max()
        assert off(1) < peak
        assert off(4) < 1e-2 * peak
        assert off(8) < 1e-7 * peak
        # diagonal scaling follows <n>^m
        diag = np.array([abs(b[8, i, 8, i]) for i in range(nn)])
        scale = bracket(0.5 * lat.n_values.astype(float)[:, None]) ** -1.0
        ratio = diag / scale
        inner = ratio[3:-3]
        assert inner.max() / inner.min() < 2.0

    def test_fio_linear_phase_equals_pseudo(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        a = gabor_matrix(OperatorHandle("pseudo_kn", sym, None, g), w, lat)
        b = gabor_matrix(OperatorHandle(
            "fio_type1", sym, phase_from_name("phase_linear"), g), w, lat)
        assert np.max(np.abs(a.entries - b.entries)) < 1e-12

    def test_piece_sum_additivity(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        lat_small = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=4, n_radius=4)
        base = symbol_from_name("model_sg(-0.5,-0.5)")
        pieces = [dyadic_piece(base, j, k) for j in range(3) for k in range(3)]
        total = SymbolSpec(order=base.order,
                           fn=lambda x, eta: sum(piece(x, eta) for piece in pieces))
        Msum = gabor_matrix(OperatorHandle("pseudo_kn", total, None, g), w, lat_small)
        acc = np.zeros_like(Msum.entries)
        for piece in pieces:
            acc += gabor_matrix(OperatorHandle("pseudo_kn", piece, None, g),
                                w, lat_small).entries
        assert np.max(np.abs(Msum.entries - acc)) < 1e-10

    def test_decay_certificate_stable(self):
        g = GridSpec(1, 16.0, 512)
        w = Window.gaussian(g)
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        op = OperatorHandle("pseudo_kn", sym, None, g)
        consts = []
        for rad in (8, 12):
            lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=rad, n_radius=rad)
            M = gabor_matrix(op, w, lat)
            consts.append(diag_decay_certify(M, -0.5, -0.5, 1, 1).constant)
        assert np.isfinite(consts).all()
        assert max(consts) / min(consts) < 2.0

    def test_weyl_variant_certificate(self):
        # the Weyl quantisation of an SG symbol obeys the same decay envelope,
        # with a constant that does not grow with the lattice
        g = GridSpec(1, 8.0, 128)
        w = Window.gaussian(g)
        sym = symbol_from_name("model_sg(-0.5,-0.5)")
        op = OperatorHandle("pseudo_weyl", sym, None, g)
        consts = []
        for rad in (4, 6):
            lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=rad, n_radius=rad)
            consts.append(diag_decay_certify(gabor_matrix(op, w, lat), -0.5, -0.5, 1, 1).constant)
        assert np.isfinite(consts).all()
        assert max(consts) / min(consts) < 2.0

    @pytest.mark.parametrize("wgrid,lgrid", [
        (GridSpec(1, 8.0, 256), GridSpec(1, 8.0, 256)),
        (GridSpec(1, 8.0, 128), GridSpec(1, 8.0, 128)),
        (GridSpec(1, 16.0, 256), GridSpec(1, 8.0, 256)),
    ], ids=["half_width", "samples", "lattice_only"])
    def test_window_or_lattice_off_operator_grid(self, wgrid, lgrid):
        """An operator on GridSpec(1, 16, 256) with a window or a lattice on
        another grid is refused; it once gave a 25 x 25 matrix on the window's
        grid, with the phase validated on the operator's box."""
        op = OperatorHandle("pseudo_kn", symbol_from_name("model_sg(-0.5,-0.5)"), None,
                            GridSpec(1, 16.0, 256))
        w = Window.gaussian(wgrid)
        lat = GaborLattice.for_grid(lgrid, 0.5, 0.5, k_radius=2, n_radius=2)
        what = "window" if wgrid != op.grid else "lattice"
        with pytest.raises(ValueError, match=f"the {what} is on .* not on the operator's grid"):
            gabor_matrix(op, w, lat)

    def test_schur_identity(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g)
        M = gabor_matrix(op, w, lat)
        rep = schur_certify(M)
        gram_row = float(np.max(np.sum(np.abs(M.entries), axis=1)))
        assert rep.all_finite
        assert abs(rep.sup_row - gram_row) < 1e-12
        assert abs(rep.sup_col - gram_row) < 1e-10

    def test_schur_negative_control_grows(self):
        g = GridSpec(1, 16.0, 512)
        w = Window.gaussian(g)
        op = OperatorHandle("pseudo_kn", symbol_from_name("eta_power(1.0)"), None, g)
        worsts = []
        for rad in (6, 9, 12):
            lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=rad, n_radius=rad)
            worsts.append(schur_certify(gabor_matrix(op, w, lat)).worst)
        assert worsts[0] < worsts[1] < worsts[2]
        assert worsts[2] / worsts[0] > 1.3


def _peak_cell_distances(M, phase):
    """For each column at (y, omega), the distance in lattice cells from the
    column's peak to the canonical-relation prediction: y' on the lattice
    with grad_eta Phi(y', omega) closest to y, omega' = grad_x Phi(y', omega)."""
    lat = M.lattice
    kcand = np.unique(M.k_phys, axis=0)
    col_norms = np.sqrt(np.sum(np.abs(M.entries) ** 2, axis=0))
    dists = []
    for i in np.nonzero(col_norms > 1e-12 * col_norms.max())[0]:
        y, om = M.k_phys[i], M.n_phys[i]
        ge = np.asarray(phase.grad_eta(kcand, np.broadcast_to(om, kcand.shape)))
        ypred = kcand[int(np.argmin(np.sum((ge - y) ** 2, axis=-1)))]
        opred = np.asarray(phase.grad_x(ypred[None, :], om[None, :]))[0]
        ipk = int(np.argmax(np.abs(M.entries[:, i])))
        dists.append(max(np.max(np.abs(M.k_phys[ipk] - ypred)) / lat.alpha,
                         np.max(np.abs(M.n_phys[ipk] - opred)) / lat.beta))
    return np.asarray(dists)


class TestConcentration:
    def test_linear_phase_zero_offset(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        op = OperatorHandle("fio_type1", symbol_from_name("one"),
                            phase_from_name("phase_linear"), g)
        assert np.max(_peak_cell_distances(gabor_matrix(op, w, lat), op.phase)) == 0.0

    def test_warped_space_peak(self, small_matrix_setup):
        g, w, lat = small_matrix_setup
        op = OperatorHandle("fio_type1", symbol_from_name("one"),
                            phase_from_name("phase_xphi(0.3)"), g)
        assert np.max(_peak_cell_distances(gabor_matrix(op, w, lat), op.phase)) <= 2.0

    def test_frequency_warp_peak(self):
        g = GridSpec(1, 16.0, 512)
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=6, n_radius=8)
        op = OperatorHandle("fio_type1", symbol_from_name("one"),
                            phase_from_name("phase_phix(0.3)"), g)
        assert np.max(_peak_cell_distances(gabor_matrix(op, w, lat), op.phase)) <= 2.0


def _dense_norm(op):
    """The spectral norm of op's sample matrix, by numpy's SVD."""
    return np.linalg.norm(op.apply_columns(np.eye(op.grid.size, dtype=complex)), 2)


def _count_dirichlet(monkeypatch):
    """A one-item list counting the calls of operators._dirichlet."""
    calls = [0]
    dirichlet = operators._dirichlet

    def spy(t, gr):
        calls[0] += 1
        return dirichlet(t, gr)

    monkeypatch.setattr(operators, "_dirichlet", spy)
    return calls


class TestOpNorm:
    def test_identity_norm(self, g512):
        op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g512)
        assert abs(op_norm_estimate(op).value - 1.0) <= 1e-12

    def test_smoothing_multiplier_norm(self, g512):
        """<eta>^-1 peaks at eta = 0, a grid node, so the norm is 1."""
        op = OperatorHandle("pseudo_kn", symbol_from_name("eta_power(-1.0)"), None, g512)
        assert abs(op_norm_estimate(op).value - 1.0) <= 1e-12

    def test_corpus_ratio_lower_bound(self, g512):
        op = OperatorHandle("fio_type1", symbol_from_name("one"),
                            phase_from_name("phase_xphi(0.3)"), g512)
        lo = max(lp_norm(Signal(g512, op.apply_columns(f.samples.ravel())), 2) / lp_norm(f, 2)
                 for f in make_corpus(g512, 4, seed=52))
        hi = op_norm_estimate(op)
        assert lo <= hi.value * (1 + 1e-12)

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("c", [0.15, 0.3])
    @pytest.mark.parametrize("kind", ["fio_type1", "fio_type2", "pseudo_kn"])
    def test_exact_norm_matches_dense(self, kind, c, n, monkeypatch):
        """A constant separable symbol on the "fft" or "warped_rows" path
        takes the rank-update route, never the dense one, and gives the
        spectral norm of the dense sample matrix whatever the seed."""
        g = GridSpec(1, 16.0, n)
        phase = None if kind == "pseudo_kn" else phase_from_name(f"phase_xphi({c})")
        op = OperatorHandle(kind, symbol_from_name("one"), phase, g)
        ref = _dense_norm(op)
        monkeypatch.setattr(operators, "_dense_l2_norm", None)  # never reached
        reps = [op_norm_estimate(op, 2.0, "power_iter_l2", seed=s) for s in (3, 4)]
        assert reps[0] == reps[1]
        assert (reps[0].iterations, reps[0].converged) == (0, True)
        assert abs(reps[0].value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("g", [GridSpec(2, 8.0, 32), GridSpec(1, 16.0, 256)],
                             ids=["d2", "d1"])
    def test_exact_norm_scales_with_constant_symbol(self, g, monkeypatch):
        """gamma = |a b| for complex constants a and b; d = 2 has 63 warped
        rows of 1024."""
        a = lambda x: np.full(np.asarray(x).shape[:-1], 3j)
        b = lambda eta: np.full(np.asarray(eta).shape[:-1], -0.5)
        sym = SymbolSpec((0.0, 0.0), separable=(a, b))
        op = OperatorHandle("fio_type1", sym, phase_from_name("phase_xphi(0.3)"), g)
        assert kernel_path(op.phase, sym, g)[0] == "warped_rows"
        ref = _dense_norm(op)
        monkeypatch.setattr(operators, "_dense_l2_norm", None)  # never reached
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("periods", [1.5, 0.37])
    def test_exact_norm_of_shifted_band(self, periods, monkeypatch):
        """A hand-built warp_x moves the 32 rows of 0 <= x < 4 by phase_xphi's
        diffeomorphism plus a shift of 1.5 or 0.37 times the period 2L of the
        frequency sum.  At 1.5 periods the closed form reduces each t of X by
        one or two periods, a factor -1 for one.  The rank-update route
        matches the spectral norm of the dense sample matrix, whose
        table-summed rows follow the warp."""
        g = GridSpec(1, 16.0, 256)
        shift = periods * 2 * g.half_width
        base = phase_from_name("phase_xphi(0.3)")

        def warp(x):
            return base.warp_x(x) + shift * ((x >= 0.0) & (x < 4.0))

        phase = replace(base, warp_x=warp,
                        fn=lambda x, eta: np.sum(warp(x) * eta, axis=-1))
        op = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g)
        assert kernel_path(phase, op.symbol, g)[1].size == 32
        ref = _dense_norm(op)
        monkeypatch.setattr(operators, "_dense_l2_norm", None)  # never reached
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("periods", [1, 2])
    def test_exact_norm_at_gamma(self, periods, monkeypatch):
        """A hand-built warp_x moves the 32 rows of 0 <= x < 4 by exactly one
        or two periods 2L, so every row is a plain Fourier row and ||A|| = 1,
        gamma itself.  G = gamma^2 (D - gamma^2 X X^T) would then be all
        rounding (1 + 1.8e-8); the route sums G = C^T C over the plain rows
        instead and matches the spectral norm of the dense sample matrix to
        1e-12."""
        g = GridSpec(1, 16.0, 256)
        shift = periods * 2 * g.half_width

        def warp(x):
            return x + shift * ((x >= 0.0) & (x < 4.0))

        phase = replace(phase_from_name("phase_xphi(0.3)"), warp_x=warp,
                        fn=lambda x, eta: np.sum(warp(x) * eta, axis=-1))
        op = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g)
        assert kernel_path(phase, op.symbol, g)[1].size == 32
        ref = _dense_norm(op)
        calls = _count_dirichlet(monkeypatch)
        monkeypatch.setattr(operators, "_dense_l2_norm", None)  # never reached
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref
        assert abs(ref - 1.0) <= 1e-12
        assert calls[0] > 2

    @pytest.mark.parametrize("delta,summed", [(1e-9, True), (1e-7, True), (1e-5, False)])
    def test_exact_norm_just_above_gamma(self, delta, summed, monkeypatch):
        """The 32 rows of 0 <= x < 4 moved by 1 + delta periods 2L give
        ||A|| - 1 of 3.4e-7, 3.4e-5 and 3.4e-3.  Below eps^(1/5) of
        ||A||^2 - gamma^2 the route sums G = C^T C: relative errors 1.4e-14
        and 1.6e-14, against 3.5e-10 and 3.9e-12 without that sum.  Above
        it G's rounding is small (3.5e-14).  All three match the dense
        spectral norm to 1e-12."""
        g = GridSpec(1, 16.0, 256)
        shift = (1 + delta) * 2 * g.half_width

        def warp(x):
            return x + shift * ((x >= 0.0) & (x < 4.0))

        phase = replace(phase_from_name("phase_xphi(0.3)"), warp_x=warp,
                        fn=lambda x, eta: np.sum(warp(x) * eta, axis=-1))
        op = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g)
        ref = _dense_norm(op)
        calls = _count_dirichlet(monkeypatch)
        monkeypatch.setattr(operators, "_dense_l2_norm", None)  # never reached
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref
        assert 0 < ref - 1.0 < 1e-2
        assert (calls[0] > 2) == summed

    def test_exact_norm_builds_no_kernel_block(self, monkeypatch):
        """c15's operators at N = 2048 and 4096 give c15's norms with no
        kernel block and no exponential table: their Gram entries are
        closed-form sums, two of them (D and X) per norm, so neither takes
        the C^T C sum of a norm at gamma."""
        def refuse(*args):
            raise AssertionError("kernel block built")

        for name in ("_block_builder", "_exp_table", "_dense_l2_norm"):
            monkeypatch.setattr(operators, name, refuse)
        calls = _count_dirichlet(monkeypatch)
        phase = phase_from_name("phase_xphi(0.3)")
        for n, norm in ((2048, 1.4471326352477485), (4096, 1.4575457569357682)):
            op = OperatorHandle("fio_type1", symbol_from_name("one"), phase,
                                GridSpec(1, 16.0, n))
            calls[0] = 0
            assert abs(op_norm_estimate(op).value - norm) <= 1e-13
            assert calls[0] == 2
            # ||A||^2 / gamma^2 - 1 is about 1.09, far past the C^T C band
            assert norm ** 2 - 1.0 > 1e3 * np.finfo(float).eps ** 0.2

    def test_exact_norm_traced_peak(self):
        """At N = 4096 (w = 113 warped rows) the closed form traces about
        1.3 MiB, under a bound of 2 MiB."""
        op = OperatorHandle("fio_type1", symbol_from_name("one"),
                            phase_from_name("phase_xphi(0.3)"), GridSpec(1, 16.0, 4096))
        tracemalloc.start()
        try:
            operators._exact_l2_norm(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("sym,phase", [
        ("model_sg(-0.5,-0.5)", "phase_xphi(0.3)"),
        ("x_power(0.5)", "phase_linear"),
        ("one", "phase_phix(0.3)"),
    ])
    def test_other_operators_take_dense_route(self, sym, phase):
        """A non-constant separable symbol, or a phase off the "fft" and
        "warped_rows" paths, takes the dense route: exact to rounding,
        whatever the seed, with the report of the rank-update route."""
        g = GridSpec(1, 16.0, 256)
        op = OperatorHandle("fio_type1", symbol_from_name(sym), phase_from_name(phase), g)
        assert operators._exact_l2_norm(op) is None
        reps = [op_norm_estimate(op, 2.0, "power_iter_l2", seed=s) for s in (3, 4)]
        assert reps[0] == reps[1]
        assert (reps[0].iterations, reps[0].converged) == (0, True)
        ref = _dense_norm(op)
        assert abs(reps[0].value - ref) <= 1e-12 * ref

    def test_many_warped_rows_take_dense_route(self):
        """(-phi(x)).eta moves every row but x = 0, more than the quarter of
        the grid that bounds the rank-update route's 2w x 2w eigenvalue
        problem: it takes the dense route."""
        g = GridSpec(1, 16.0, 256)
        phase = _negated_phase(phase_from_name("phase_xphi(0.3)"))
        assert kernel_path(phase, symbol_from_name("one"), g)[1].size == 255
        op = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g)
        assert operators._exact_l2_norm(op) is None
        ref = _dense_norm(op)
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("kind,pname,gname", [
        ("pseudo_weyl", None, "d1"),
        ("fio_type2", "phase_phix(0.3)", "d1"),
        ("fio_type1", "phase_phix(0.3)", "d2"),
    ])
    def test_dense_route_on_other_kinds(self, kind, pname, gname):
        """The Weyl midpoint sum, the type II operator (the adjoint kernel)
        and a d = 2 grid take the dense route too, exact to rounding."""
        g = PATH_GRIDS[gname]
        op = OperatorHandle(kind, symbol_from_name("model_sg(-0.5,-0.5)"),
                            phase_from_name(pname) if pname else None, g)
        assert operators._exact_l2_norm(op) is None
        ref = _dense_norm(op)
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref

    def test_unknown_method_and_p(self, g512):
        op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g512)
        with pytest.raises(ValueError, match="unknown method"):
            op_norm_estimate(op, 2.0, "corpus_max_ratio")
        with pytest.raises(ValueError, match="L\\^2"):
            op_norm_estimate(op, 1.0)

    @pytest.mark.parametrize("gname", ["d1_256", "d2_128"])
    def test_dense_route_refused_before_allocating(self, gname, monkeypatch):
        """Past DENSE_BYTES the dense route raises DenseSizeError, naming the
        grid size and the constant, before the sample matrix is built: with
        the budget one byte short of 5 x 16 x size^2 B on a small grid, and
        at the real budget on d = 2, N = 128 (20 GiB)."""
        g = {"d1_256": GridSpec(1, 16.0, 256), "d2_128": GridSpec(2, 8.0, 128)}[gname]
        op = OperatorHandle("fio_type1", symbol_from_name("model_sg(-0.5,-0.5)"),
                            phase_from_name("phase_phix(0.3)"), g)
        assert kernel_path(op.phase, op.symbol, g)[0] == "phase_kernel"
        if gname == "d1_256":
            monkeypatch.setattr(operators, "DENSE_BYTES", 5 * 16 * g.size ** 2 - 1)
        monkeypatch.setattr(OperatorHandle, "apply_columns", None)  # never reached
        with pytest.raises(DenseSizeError, match=f"on {g.size} grid points") as err:
            op_norm_estimate(op)
        assert "DENSE_BYTES" in str(err.value)

    def test_dense_budget_is_inclusive(self, monkeypatch):
        g = GridSpec(1, 16.0, 128)
        op = OperatorHandle("fio_type1", symbol_from_name("one"),
                            phase_from_name("phase_phix(0.3)"), g)
        monkeypatch.setattr(operators, "DENSE_BYTES", 5 * 16 * g.size ** 2)
        ref = _dense_norm(op)
        assert abs(op_norm_estimate(op).value - ref) <= 1e-12 * ref

    def test_leading_symbol_orders(self):
        p = symbol_from_name("eta_power(1.0)")
        sigma = symbol_from_name("model_sg(-0.5,-0.5)")
        s0 = leading_symbol(p, phase_from_name("phase_xphi(0.3)"), sigma)
        assert s0.order == (0.5, -0.5)


@pytest.mark.parametrize("kind,phase_name", [
    ("pseudo_kn", None),
    ("fio_type1", "phase_xphi(0.3)"),
    ("fio_type2", "phase_xphi(0.3)"),
])
def test_every_application_is_linear(kind, phase_name):
    g = GridSpec(1, 8.0, 256)
    rng = np.random.default_rng(60)
    f, h = random_schwartz_signal(g, rng), random_schwartz_signal(g, rng)
    phase = phase_from_name(phase_name) if phase_name else None
    op = OperatorHandle(kind, symbol_from_name("model_sg(-0.5,-0.5)"), phase, g)
    a, b = 0.3 + 0.9j, -1.1 - 0.2j
    comb = Signal(g, a * f.samples + b * h.samples)
    lhs = op.apply_columns(comb.samples.ravel())
    fa = op.apply_columns(f.samples.ravel())
    hb = op.apply_columns(h.samples.ravel())
    rhs = a * fa + b * hb
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)


@pytest.mark.parametrize("gname", ["d1", "d2"])
@pytest.mark.parametrize("kind,pname", [
    ("pseudo_kn", None), ("pseudo_weyl", None),
    ("fio_type1", "phase_xphi(0.3)"), ("fio_type1", "phase_phix(0.3)"),
    ("fio_type2", "phase_xphi(0.3)"), ("fio_type2", "phase_phix(0.3)"),
])
def test_apply_columns_adjoint(kind, pname, gname):
    """<A f, h> = <f, A* h> to 1e-12 of ||f|| ||h||, with A* from
    apply_columns(adjoint=True), for every kind in d = 1 and 2 (the Weyl
    sum on N^d = 256).  The symbol is complex and not real-valued, so an
    adjoint that forgot to conjugate it would fail.  Two columns at once
    give the two single-column results."""
    g = PATH_GRIDS[gname]
    op = OperatorHandle(kind, _path_symbol("complex"),
                        phase_from_name(pname) if pname else None, g)
    rng = np.random.default_rng(78)
    f, h = random_schwartz_signal(g, rng), random_schwartz_signal(g, rng)
    Af = Signal(g, op.apply_columns(f.samples.ravel()))
    Ah = op.apply_columns(h.samples.ravel(), adjoint=True)
    lhs = inner_product(Af, h)
    rhs = inner_product(f, Signal(g, Ah))
    assert abs(lhs - rhs) <= 1e-12 * lp_norm(f, 2) * lp_norm(h, 2)
    both = op.apply_columns(np.stack([f.samples.ravel(), h.samples.ravel()], axis=1),
                            adjoint=True)
    assert _rel(both[:, 1], Ah) <= 1e-12


def test_unknown_kind_refused_at_construction():
    with pytest.raises(ValueError, match="unknown kind bogus"):
        OperatorHandle("bogus", symbol_from_name("one"), None, GridSpec(1, 8.0, 64))


@pytest.mark.parametrize("kind", ["pseudo_kn", "pseudo_weyl"])
def test_pseudo_kinds_refuse_a_phase(kind):
    with pytest.raises(ValueError, match=f"{kind} takes no phase"):
        OperatorHandle(kind, symbol_from_name("one"), phase_from_name("phase_xphi(0.3)"),
                       GridSpec(1, 8.0, 64))


def test_apply_refuses_signal_off_grid():
    op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, GridSpec(1, 16.0, 256))
    f = random_schwartz_signal(GridSpec(1, 8.0, 256), np.random.default_rng(79))
    with pytest.raises(ValueError, match="not on the operator's grid"):
        op.apply(f)


# ---------------------------------------------------------------------------
# Every application path against the dense reference
# ---------------------------------------------------------------------------

PATH_SYMBOLS = ("one", "model_sg(-0.5,-0.5)", "eta_power(-1.0)", "x_power(0.5)",
                "x_power_freq_cutoff(-0.25)", "x_cutoff_eta_power(-0.5)", "complex")
PATH_PHASES = ("phase_linear", "phase_xphi(0.3)", "phase_phix(0.3)")
PATH_KINDS = [("pseudo_kn", None)] + [
    (kind, phase) for kind in ("fio_type1", "fio_type2") for phase in PATH_PHASES]
PATH_GRIDS = {"d1": GridSpec(1, 8.0, 256), "d2": GridSpec(2, 2.0, 16)}


def _rel(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def _path_symbol(sname):
    """Registry symbols are real; "complex" makes the adjoints conjugate a and b."""
    if sname != "complex":
        return symbol_from_name(sname)
    a = lambda x: np.exp(1j * np.sum(np.asarray(x), axis=-1))
    b = lambda eta: np.exp(-0.5j * np.sum(np.asarray(eta), axis=-1)) * bracket(eta) ** -0.5
    return SymbolSpec(order=(-0.5, 0.0),
                      fn=lambda x, eta: a(x) * b(eta), separable=(a, b))


# the explicit sigma(x, eta) that each registry symbol declared next to its
# factors before fn was derived from them; the derived fn equals it bit for bit
EXPLICIT_SYMBOLS = {
    "one": lambda x, eta: np.ones(np.broadcast(x[..., 0], eta[..., 0]).shape),
    "model_sg(-0.5,-0.5)": lambda x, eta: bracket(eta) ** -0.5 * bracket(x) ** -0.5,
    "eta_power(-1.0)": lambda x, eta: bracket(eta) ** -1.0 * np.ones(x.shape[:-1]),
    "x_power(0.5)": lambda x, eta: bracket(x) ** 0.5 * np.ones(eta.shape[:-1]),
    "x_power_freq_cutoff(-0.25)": lambda x, eta: bracket(x) ** -0.25
    * plateau(np.sqrt(np.sum(eta ** 2, axis=-1)), 1.0, 2.0),
    "x_cutoff_eta_power(-0.5)": lambda x, eta:
    plateau(np.max(np.abs(x - 0.5), axis=-1), 0.9, 1.4) * bracket(eta) ** -0.5,
}

PATH_LABELS = {"phase_linear": "fft", "phase_xphi(0.3)": "warped_rows",
               "phase_phix(0.3)": "phase_kernel"}


def test_path_cases_cover_registries():
    assert {s.split("(")[0] for s in PATH_SYMBOLS} - {"complex"} == set(SYMBOL_BUILDERS)
    assert {p.split("(")[0] for p in PATH_PHASES} == set(PHASE_BUILDERS)
    assert set(EXPLICIT_SYMBOLS) == set(PATH_SYMBOLS) - {"complex"}
    for g in PATH_GRIDS.values():
        X, E = g.space_points()[:, None], g.freq_points()[None]
        for sname in PATH_SYMBOLS:
            sym = _path_symbol(sname)
            dense = replace(sym, separable=None)
            if sname in EXPLICIT_SYMBOLS:
                assert np.array_equal(dense.fn(X, E), EXPLICIT_SYMBOLS[sname](X, E))
            assert (kernel_path(None, sym, g)[0], kernel_path(None, dense, g)[0]) == ("fft", "dense")
            for pname in PATH_PHASES:
                phase = phase_from_name(pname)
                assert kernel_path(phase, sym, g)[0] == PATH_LABELS[pname]
                assert kernel_path(phase, dense, g)[0] == "dense"
    # transposed and negated phases carry their parent's warp: x.phi(eta)
    # takes the phase-only kernel, (-phi(x)).eta warps every row but x = 0;
    # a dilation conjugate declares no warp
    g, sym = PATH_GRIDS["d1"], symbol_from_name("one")
    xphi = phase_from_name("phase_xphi(0.3)")
    derived = [_transposed_phase(xphi), _negated_phase(xphi),
               conjugated_piece(dyadic_piece(sym, 2, 0), xphi, 2, 0)[1]]
    assert [kernel_path(p, sym, g)[0] for p in derived] == \
        ["phase_kernel", "warped_rows", "phase_kernel"]
    assert kernel_path(derived[1], sym, g)[1].size == g.size - 1
    # the label follows the grid: no node of this one lies inside the warp
    assert kernel_path(xphi, sym, GridSpec(1, 8.0, 8))[0] == "fft"


@pytest.mark.parametrize("gname", sorted(PATH_GRIDS))
@pytest.mark.parametrize("sname", PATH_SYMBOLS)
@pytest.mark.parametrize("kind,pname", PATH_KINDS)
def test_paths_match_dense_reference(gname, sname, kind, pname):
    """Separable paths (two FFTs, FFT plus warped kernel rows, phase-only
    kernel), batched Gabor assembly, the adjoint and the normal operator A*A
    agree with the dense kernel times sigma, reached by rebuilding the
    symbol without `separable`."""
    g = PATH_GRIDS[gname]
    sym = _path_symbol(sname)
    phase = phase_from_name(pname) if pname else None
    op = OperatorHandle(kind, sym, phase, g)
    dense = OperatorHandle(kind, replace(sym, separable=None), phase, g)
    v = random_schwartz_signal(g, np.random.default_rng(70)).samples.ravel()
    assert _rel(op.apply_columns(v), dense.apply_columns(v)) <= 1e-12
    assert _rel(op.apply_columns(v, adjoint=True), dense.apply_columns(v, adjoint=True)) <= 1e-12

    w = Window.gaussian(g)
    radius = 3 if g.dim == 1 else 1
    lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=radius, n_radius=radius)
    M = gabor_matrix(op, w, lat)
    atoms, _, _ = _atom_table(w, lat)
    outs = np.stack([op.apply_columns(a) for a in atoms], axis=1)
    ref = (atoms.conj() @ outs) * g.space_step ** g.dim
    assert np.max(np.abs(M.entries - ref)) <= 1e-12 * np.max(np.abs(ref))

    ref = dense.apply_columns(dense.apply_columns(v), adjoint=True)
    assert _rel(op.apply_columns(op.apply_columns(v), adjoint=True), ref) <= 1e-12


def test_paths_across_kernel_blocks():
    """909 warped rows, contracted against the tables, in both directions
    and the normal operator A*A, against the dense reference, whose 2048
    rows fill eight kernel blocks of DEFAULT_CHUNK rows."""
    g = GridSpec(1, 1.0, 2048)
    sym = _path_symbol("complex")
    phase = phase_from_name("phase_xphi(0.3)")
    op = OperatorHandle("fio_type1", sym, phase, g)
    dense = OperatorHandle("fio_type1", replace(sym, separable=None), phase, g)
    v = random_schwartz_signal(g, np.random.default_rng(71)).samples.ravel()
    ref = dense.apply_columns(v)
    assert _rel(op.apply_columns(v), ref) <= 1e-12
    assert _rel(op.apply_columns(v, adjoint=True), dense.apply_columns(v, adjoint=True)) <= 1e-12
    ref = dense.apply_columns(ref, adjoint=True)
    assert _rel(op.apply_columns(op.apply_columns(v), adjoint=True), ref) <= 1e-12
    assert kernel_path(phase, sym, g)[1].size == 909


def _dense_pair(sym, phase, g, f):
    """A f and A* f on the dense reference path, with A = (phase, sym)."""
    dense = OperatorHandle("fio_type1", replace(sym, separable=None), phase, g)
    return [dense.apply_columns(f.samples.ravel(), adjoint) for adjoint in (False, True)]


def _spy_tables(monkeypatch):
    """The (rows, points) of every _exp_table call from here on, with
    _block_builder refused."""
    tables = []
    exp_table = operators._exp_table

    def spy_table(nodes, s):
        tables.append((len(nodes), len(s)))
        return exp_table(nodes, s)

    def no_block(*args):
        raise AssertionError("kernel block built")

    monkeypatch.setattr(operators, "_exp_table", spy_table)
    monkeypatch.setattr(operators, "_block_builder", no_block)
    return tables


def _assert_table_layout(tables, q, na, d, linear_out):
    """tables, from _spy_tables over one application, hold a lo table of q
    rows per axis and single hi rows.  Each axis keeps its hi row until its
    block index changes, so the axis t of na blocks builds at most
    na^(t + 1) rows, all of them for the linear output, which visits every
    block."""
    assert [r for r, _ in tables if r != 1] == [q] * d
    hi = sum(r == 1 for r, _ in tables)
    most = sum(na ** (t + 1) for t in range(d))
    assert hi == most if linear_out else 0 < hi <= most


def _no_fn(x, eta):
    raise AssertionError("exp(2 pi i Phi) evaluated through fn")


@pytest.mark.parametrize("gname", sorted(PATH_GRIDS))
@pytest.mark.parametrize("pname", PATH_PHASES)
def test_declared_warps_take_table_build(gname, pname, monkeypatch):
    """Every registry phase declares a warp, and its sums are contracted
    against the exponential tables of _table_sum, never a kernel block of
    _block_builder and never fn: one lo table of Q rows per axis, Q the
    power of two nearest sqrt(n), and hi rows built one at a time, in both
    directions and in d = 1 and 2.  phase_linear builds no table at all.
    A zero input, which leaves no active column, gives zero."""
    g = PATH_GRIDS[gname]
    n = g.samples_per_axis
    q = operators._split(n)
    assert q in (16, 4) and q * q == n
    phase = phase_from_name(pname)
    assert phase.warp_x is not None or phase.warp_eta is not None
    sym = _path_symbol("complex")
    f = random_schwartz_signal(g, np.random.default_rng(75))
    refs = _dense_pair(sym, phase, g, f)
    tables = _spy_tables(monkeypatch)
    op = OperatorHandle("fio_type1", sym, replace(phase, fn=_no_fn), g)
    for adjoint, ref in zip((False, True), refs):
        tables.clear()
        assert _rel(op.apply_columns(f.samples.ravel(), adjoint), ref) <= 1e-12
        if pname == "phase_linear":
            assert tables == []
            continue
        _assert_table_layout(tables, q, n // q, g.dim,
                             linear_out=(phase.warp_x is None) != adjoint)
    zero = np.zeros(g.size, dtype=complex)
    assert not np.any(op.apply_columns(zero))
    assert not np.any(op.apply_columns(zero, adjoint=True))


@pytest.mark.parametrize("pname", ["phase_xphi(0.3)", "phase_phix(0.3)"])
def test_table_sum_when_split_leaves_remainder(pname, monkeypatch):
    """At N = 100, Q = 8 does not divide N: the linear side is padded to
    13 blocks of 8 nodes, and both warps in both directions still match the
    dense reference to 1e-12 with no kernel block built, from a lo table of
    8 rows and hi rows built one block at a time."""
    g = GridSpec(1, 8.0, 100)
    assert operators._split(100) == 8
    phase = phase_from_name(pname)
    sym = _path_symbol("complex")
    f = random_schwartz_signal(g, np.random.default_rng(77))
    refs = _dense_pair(sym, phase, g, f)
    tables = _spy_tables(monkeypatch)
    op = OperatorHandle("fio_type1", sym, replace(phase, fn=_no_fn), g)
    for adjoint, ref in zip((False, True), refs):
        tables.clear()
        assert _rel(op.apply_columns(f.samples.ravel(), adjoint), ref) <= 1e-12
        _assert_table_layout(tables, 8, 13, 1,
                             linear_out=(phase.warp_x is None) != adjoint)


DERIVED_OPERATORS = {
    "t": lambda p, s: (_transposed_phase(p), _transposed_symbol(s)),
    "neg": lambda p, s: (_negated_phase(p), s),
    "neg_t": lambda p, s: (_negated_phase(_transposed_phase(p)), _starred_symbol(s)),
}


@pytest.mark.parametrize("gname", sorted(PATH_GRIDS))
@pytest.mark.parametrize("derive", sorted(DERIVED_OPERATORS))
@pytest.mark.parametrize("pname", ["phase_xphi(0.3)", "phase_phix(0.3)"])
def test_derived_operators_take_table_build(gname, pname, derive):
    """The operators of the transpose and Fourier-conjugation identities
    (c07, c13) keep a separable symbol and a declared warp, so their sums
    are contracted against the exponential tables, never through fn, and
    agree with the direct exp(2 pi i Phi) times sigma of the dense path,
    for A and A*.
    The derived symbol's factors multiply to its fn."""
    g = PATH_GRIDS[gname]
    phase, sym = DERIVED_OPERATORS[derive](phase_from_name(pname), _path_symbol("complex"))
    x = g.space_points()[:, None]
    eta = g.freq_points()[None, ::7]
    a, b = sym.separable
    assert _rel(a(x) * b(eta), sym(x, eta)) <= 1e-15
    op = OperatorHandle("fio_type1", sym, replace(phase, fn=_no_fn), g)
    dense = OperatorHandle("fio_type1", replace(sym, separable=None), phase, g)
    v = random_schwartz_signal(g, np.random.default_rng(76)).samples.ravel()
    assert _rel(op.apply_columns(v), dense.apply_columns(v)) <= 1e-12
    assert _rel(op.apply_columns(v, adjoint=True), dense.apply_columns(v, adjoint=True)) <= 1e-12


def _large_argument_inputs(gname):
    """Witness columns of c14 (lp_witness, n = 128) and c12 (sharpness,
    n = 16 and 256), with the grid they run on."""
    if gname == "lp_witness":
        g = lp_witness_grid()
        pairs = _lp_witnesses(128, default_chi(), make_diffeo(0.3), g)
        return g, np.stack([w.samples for _, w in pairs], axis=1)
    g = sharpness_grid()
    return g, np.stack([make_fn(n, default_chi(), g).samples for n in (16, 256)], axis=1)


@pytest.mark.parametrize("gname", ["lp_witness", "sharpness"])
@pytest.mark.parametrize("pname", ["phase_phix(0.3)", "phase_xphi(0.3)"])
def test_table_build_at_large_arguments(gname, pname):
    """On the c12 and c14 grids the kernel arguments reach |2 pi Phi| of
    about 2000 rad (c14 witnesses) and 3000 rad (n = 256), against about
    400 rad in the path tests above.  The table sums still agree with the
    direct exp(2 pi i Phi) of the dense path to 1e-12, for A and for A*."""
    g, cols = _large_argument_inputs(gname)
    one = symbol_from_name("one")
    phase = phase_from_name(pname)
    op = OperatorHandle("fio_type1", one, phase, g)
    dense = OperatorHandle("fio_type1", replace(one, separable=None), phase, g)
    for adjoint in (False, True):
        got = op.apply_columns(cols, adjoint)
        ref = dense.apply_columns(cols, adjoint)
        assert _rel(got, ref) <= 1e-12


@pytest.mark.parametrize("n,warped", [(2048, 57), (4096, 113)])
def test_l2_stability_takes_exact_route(n, warped, monkeypatch):
    """run_l2_stability's operators warp the same rows for every c that
    make_diffeo accepts, since the bump's support fixes them, and those few
    rows keep them on the rank-update route: never the dense sample matrix,
    whatever the seed."""
    monkeypatch.setattr(operators, "_dense_l2_norm", None)  # never reached
    g = GridSpec(1, 16.0, n)
    for c in (0.3, -0.5, 0.5):
        phase = phase_from_name(f"phase_xphi({c})")
        op = OperatorHandle("fio_type1", symbol_from_name("one"), phase, g)
        path, rows = kernel_path(phase, op.symbol, g)
        assert (path, rows.size) == ("warped_rows", warped)
        reps = [op_norm_estimate(op, 2.0, "power_iter_l2", seed=s) for s in (3, 4)]
        assert reps[0] == reps[1]
        assert (reps[0].iterations, reps[0].converged) == (0, True)
        assert reps[0].value >= 1.0


@pytest.mark.parametrize("gname", sorted(PATH_GRIDS))
@pytest.mark.parametrize("sname", PATH_SYMBOLS)
def test_linear_phase_is_kohn_nirenberg(gname, sname):
    """phase_linear leaves every node fixed, so fio_type1 runs the same two
    FFTs as pseudo_kn, bit for bit, in both directions."""
    g = PATH_GRIDS[gname]
    sym = _path_symbol(sname)
    fio = OperatorHandle("fio_type1", sym, phase_from_name("phase_linear"), g)
    kn = OperatorHandle("pseudo_kn", sym, None, g)
    v = random_schwartz_signal(g, np.random.default_rng(74)).samples.ravel()
    assert np.array_equal(fio.apply_columns(v), kn.apply_columns(v))
    assert np.array_equal(fio.apply_columns(v, adjoint=True), kn.apply_columns(v, adjoint=True))


def test_weyl_columns_match_per_atom():
    """Weyl stays on its midpoint sum; batched columns equal per-atom calls,
    and the Weyl operator of the conjugate symbol is its exact adjoint."""
    g = GridSpec(1, 4.0, 64)
    sym = _path_symbol("complex")
    op = OperatorHandle("pseudo_weyl", sym, None, g)
    w = Window.gaussian(g)
    lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=2, n_radius=2)
    M = gabor_matrix(op, w, lat)
    atoms, _, _ = _atom_table(w, lat)
    outs = np.stack([op.apply(Signal(g, a)).samples.ravel() for a in atoms], axis=1)
    ref = (atoms.conj() @ outs) * g.space_step
    assert np.max(np.abs(M.entries - ref)) <= 1e-12 * np.max(np.abs(ref))
    rng = np.random.default_rng(72)
    f, h = random_schwartz_signal(g, rng), random_schwartz_signal(g, rng)
    lhs = inner_product(op.apply(f), h)
    conj = OperatorHandle("pseudo_weyl", SymbolSpec(
        sym.order, lambda x, eta: np.conj(sym(x, eta))), None, g)
    rhs = inner_product(f, conj.apply(h))
    assert abs(lhs - rhs) <= 1e-12 * lp_norm(f, 2) * lp_norm(h, 2)
