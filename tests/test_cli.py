import dataclasses
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fiolab import gabor, operators, persist
from fiolab.cli import main
from fiolab.config import ConfigError, ExperimentConfig, load_config, parse_config
from fiolab.gabor import GaborLattice, Window, gabor_analysis, stft
from fiolab.grid import GridSpec, Signal, gaussian_generator, lp_norm
from fiolab.manifest import load_manifest
from fiolab.operators import DenseSizeError, OperatorHandle, gabor_matrix
from fiolab.persist import (
    MATRIX_RECORD,
    SCHEMA_LINE,
    coeffs_to_csv,
    matrix_to_binary,
    matrix_to_csv,
    read_csv,
    signal_from_csv,
    signal_to_csv,
    stft_to_csv,
    write_csv,
)
from fiolab.runner import EXPERIMENTS, _runner_defaults, run_experiment, rerun_from_manifest
from fiolab.symbols import phase_from_name, symbol_from_name


def default_config(name):
    """The config experiment `name` runs with when none is given."""
    return ExperimentConfig().resolve(name, _runner_defaults(name))


TINY_FL = """\
[grid]
dim = 1
half_width = 2
samples_per_axis = 512

[experiment]
name = fl_growth
p = 1
n_sweep = 8,16,32
diffeo_c = 0.3
"""


class TestConfig:
    def test_parse_and_digest_stable(self):
        a = parse_config(TINY_FL)
        b = parse_config(TINY_FL.replace("p = 1", "p =  1"))
        assert a.digest() == b.digest()
        assert a.get("experiment", "n_sweep") == (8, 16, 32)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nname = fl_growth\nbogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config("[mystery]\nx = 1\n")

    def test_output_section_rejected(self):
        # seed, jobs and plot come only from --seed, --jobs and --plot
        for key in ("seed = 11", "jobs = 2", "plot = true"):
            with pytest.raises(ConfigError, match=r"unknown section \[output\]"):
                parse_config(f"{TINY_FL}\n[output]\n{key}\n")

    def test_deleted_keys_rejected(self):
        # the window is fixed per experiment and the lattice size by the runner
        with pytest.raises(ConfigError, match=r"unknown section \[window\]"):
            parse_config(f"{TINY_FL}\n[window]\nkind = gaussian\nwidth = 1\n")
        for section, key in (("lattice", "k_radius = 4"), ("lattice", "n_radius = 4"),
                             ("experiment", "x_stride = 2"), ("experiment", "symbol = one"),
                             ("experiment", "phase = phase_linear"), ("experiment", "refine = 1")):
            with pytest.raises(ConfigError, match=f"unknown key '{key.split()[0]}'"):
                parse_config(f"[{section}]\n{key}\n")

    def test_physical_validation(self):
        bad = TINY_FL.replace("n_sweep = 8,16,32", "n_sweep = 8,16,4096")
        with pytest.raises(ConfigError):
            parse_config(bad)
        with pytest.raises(ConfigError):
            parse_config("[grid]\ndim = 1\nhalf_width = 2\nsamples_per_axis = 511\n")

    def test_physical_validation_uses_the_grid_that_runs(self, tmp_path):
        # with no [grid], n_sweep is checked against the runner's default
        # grid (fl_growth: Nyquist 512, safe band 256)
        cfg = parse_config("[experiment]\nn_sweep = 16,512\n")
        with pytest.raises(ConfigError, match="exceeds the safe band"):
            run_experiment("fl_growth", cfg, tmp_path / "a")
        assert not list(tmp_path.rglob("*.manifest.json"))

    def test_defaults_exist_for_registered(self):
        for name in EXPERIMENTS:
            cfg = default_config(name)
            assert cfg.get("experiment", "name") == name
            # the rendered defaults parse back to the same keys, values and types
            text = cfg.canonical_text()
            assert parse_config(text).canonical_text() == text
            assert parse_config(text).params() == cfg.params()


# one key each runner does not take: [grid] where the sweep grid is fixed,
# [lattice] where no lattice is built, an [experiment] key otherwise
UNREAD_KEY = {
    "fl_growth": ("[lattice]\nalpha = 0.5\n", "[lattice] alpha"),
    "multiplier_growth": ("[lattice]\nalpha = 0.5\n", "[lattice] alpha"),
    "dilation_exponents": ("[lattice]\nbeta = 0.5\n", "[lattice] beta"),
    "lp_threshold": ("[grid]\nhalf_width = 2\nsamples_per_axis = 512\n", "[grid]"),
    "m1_sharpness": ("[grid]\nhalf_width = 2\nsamples_per_axis = 512\n", "[grid]"),
    "m2_sharpness": ("[grid]\nhalf_width = 2\nsamples_per_axis = 512\n", "[grid]"),
    "boundedness_suite": ("[grid]\nhalf_width = 2\nsamples_per_axis = 512\n", "[grid]"),
    "composition_residual": ("[lattice]\nalpha = 0.5\n", "[lattice] alpha"),
    "almost_diag": ("[experiment]\nn_sweep = 16,32\n", "[experiment] n_sweep"),
    "l2_stability": ("[grid]\nhalf_width = 2\nsamples_per_axis = 512\n", "[grid]"),
    "norm_equivalence": ("[experiment]\nm1 = -0.5\n", "[experiment] m1"),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_key_runner_does_not_take_is_rejected(name, tmp_path, capsys):
    text, label = UNREAD_KEY[name]
    cfg = parse_config(text)
    with pytest.raises(ConfigError,
                       match=re.escape(f"experiment '{name}' does not accept {label}") + "$"):
        run_experiment(name, cfg, tmp_path / "a")
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert main(["experiment", name, "--config", str(path),
                 "--out", str(tmp_path / "b")]) == 1
    assert f"does not accept {label}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.manifest.json"))


def test_every_experiment_has_an_unread_key_case():
    assert set(UNREAD_KEY) == set(EXPERIMENTS)


class TestPersist:
    def test_csv_round_trip(self, tmp_path):
        g = GridSpec(1, 4.0, 64)
        f = Signal.from_generator(g, gaussian_generator())
        p = signal_to_csv(tmp_path / "sig.csv", f)
        back = signal_from_csv(p, g)
        assert np.array_equal(back.samples, f.samples)
        header, rows = read_csv(p)
        assert header == ["i0", "re", "im"]
        assert len(rows) == 64

    def test_csv_round_trip_2d(self, tmp_path):
        g = GridSpec(2, 4.0, 16)
        rng = np.random.default_rng(5)
        f = Signal(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        p = signal_to_csv(tmp_path / "sig.csv", f)
        assert np.array_equal(signal_from_csv(p, g).samples, f.samples)
        header, rows = read_csv(p)
        assert header == ["i0", "i1", "re", "im"]
        assert rows[17][:2] == ["1", "1"]

    def test_schema_line(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ["a"], [[1.5]])
        assert p.read_text().splitlines()[0] == "# schema=1"

    def test_binary_matrix_records(self, tmp_path):
        g = GridSpec(1, 8.0, 128)
        w = Window.gaussian(g)
        lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=2, n_radius=2)
        op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g)
        M = gabor_matrix(op, w, lat)
        path = matrix_to_binary(tmp_path / "m.bin", M)
        rec = struct.Struct("<4i2d")
        raw = path.read_bytes()
        assert len(raw) % rec.size == 0
        ki, ni, kj, nj, a, ph = rec.unpack(raw[:rec.size])
        assert (ki, ni) == (-2, -2)
        assert a == abs(M.entries[0, 0])


def _binary_reference(path, m, min_abs):
    """The record-by-record struct writer matrix_to_binary replaced."""
    rec = struct.Struct("<4i2d")
    alpha, beta = m.lattice.alpha, m.lattice.beta
    with open(path, "wb") as fh:
        for i in range(m.num_atoms):
            ki = int(round(m.k_phys[i, 0] / alpha))
            ni = int(round(m.n_phys[i, 0] / beta))
            for j in range(m.num_atoms):
                v = m.entries[i, j]
                a = abs(v)
                if a <= min_abs:
                    continue
                kj = int(round(m.k_phys[j, 0] / alpha))
                nj = int(round(m.n_phys[j, 0] / beta))
                fh.write(rec.pack(ki, ni, kj, nj, a, float(np.angle(v))))
    return path


def _matrix_csv_reference(path, m, min_abs):
    """The record-by-record writer matrix_to_csv replaced."""
    rows = []
    for i in range(m.num_atoms):
        for j in range(m.num_atoms):
            v = m.entries[i, j]
            a = abs(v)
            if a <= min_abs:
                continue
            rows.append([
                float(m.k_phys[i, 0]), float(m.n_phys[i, 0]),
                float(m.k_phys[j, 0]), float(m.n_phys[j, 0]),
                float(a), float(np.angle(v)),
            ])
    return write_csv(path, ["kp", "np", "k", "n", "abs", "phase"], rows)


def _signal_csv_reference(path, f):
    """The record-by-record writer signal_to_csv replaced."""
    d = f.grid.dim
    header = [f"i{a}" for a in range(d)] + ["re", "im"]
    idx = np.indices(f.grid.shape).reshape(d, -1).T
    flat = f.samples.ravel()
    rows = ([*map(int, ix), float(v.real), float(v.imag)] for ix, v in zip(idx, flat))
    return write_csv(path, header, rows)


def _stft_csv_reference(path, data):
    """The record-by-record writer stft_to_csv replaced."""
    rows = []
    for i in range(data.values.shape[0]):
        for k in range(data.values.shape[1]):
            v = data.values[i, k]
            rows.append([int(i), int(k), float(v.real), float(v.imag)])
    return write_csv(path, ["k", "n", "re", "im"], rows)


def _coeffs_csv_reference(path, c):
    """The record-by-record writer coeffs_to_csv replaced."""
    rows = []
    for i, k in enumerate(c.lattice.k_index):
        for j, n in enumerate(c.lattice.n_index):
            v = c.values[i, j]
            rows.append([int(k), int(n), float(v.real), float(v.imag)])
    return write_csv(path, ["k", "n", "re", "im"], rows)


@pytest.fixture(scope="module")
def xphi_matrix():
    g = GridSpec(1, 8.0, 256)
    w = Window.gaussian(g)
    lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=6, n_radius=6)
    op = OperatorHandle("fio_type1", symbol_from_name("model_sg(-0.5,-0.5)"),
                        phase_from_name("phase_xphi(0.3)"), g)
    return gabor_matrix(op, w, lat)


@pytest.mark.parametrize("min_abs", [0.0, 1e-3])
def test_binary_matrix_matches_struct_writer(tmp_path, xphi_matrix, min_abs):
    M = xphi_matrix
    got = matrix_to_binary(tmp_path / "m.bin", M, min_abs=min_abs).read_bytes()
    ref = _binary_reference(tmp_path / "ref.bin", M, min_abs).read_bytes()
    assert got == ref
    # 32-byte records; the positive threshold drops some non-zero entries
    nonzero = 32 * np.count_nonzero(M.entries)
    assert 0 < len(got) <= nonzero
    assert (len(got) < nonzero) == (min_abs > 0)


@pytest.mark.parametrize("threshold", ["zero", "entry"])
def test_matrix_csv_matches_record_writer(tmp_path, xphi_matrix, threshold):
    M = xphi_matrix
    # an entry's own modulus as threshold drops that entry (abs <= min_abs)
    min_abs = abs(M.entries[40, 45]) if threshold == "entry" else 0.0
    got = matrix_to_csv(tmp_path / "m.csv", M, min_abs=min_abs).read_bytes()
    ref = _matrix_csv_reference(tmp_path / "ref.csv", M, min_abs).read_bytes()
    assert got == ref
    mag = np.hypot(M.entries.real, M.entries.imag)
    assert len(got.splitlines()) - 2 == np.count_nonzero(mag > min_abs) > 0


def test_matrix_exports_keep_nan_entries(tmp_path, xphi_matrix):
    entries = xphi_matrix.entries.copy()
    entries[3, 7] = np.nan
    M = dataclasses.replace(xphi_matrix, entries=entries)
    for min_abs in (0.0, 1e-3):
        b = matrix_to_binary(tmp_path / "m.bin", M, min_abs=min_abs).read_bytes()
        c = matrix_to_csv(tmp_path / "m.csv", M, min_abs=min_abs).read_bytes()
        assert b == _binary_reference(tmp_path / "ref.bin", M, min_abs).read_bytes()
        assert c == _matrix_csv_reference(tmp_path / "ref.csv", M, min_abs).read_bytes()
        assert len(b) // MATRIX_RECORD.itemsize == len(c.splitlines()) - 2
    rec = np.fromfile(tmp_path / "m.bin", dtype=MATRIX_RECORD)
    assert np.isnan(rec["abs"]).sum() == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_signal_csv_matches_record_writer(tmp_path, dim):
    g = GridSpec(dim, 4.0, 16)
    rng = np.random.default_rng(dim)
    vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    # -0.0, a subnormal and values whose repr is in exponent form
    special = [-0.0, 5e-324, 1e-310, 1e16, 1.5e-7, -2.5e300, 123456789.125, 1e-05]
    vals.real[:len(special)] = special
    vals.imag[-len(special):] = special
    f = Signal(g, vals)
    got = signal_to_csv(tmp_path / "s.csv", f).read_bytes()
    assert got == _signal_csv_reference(tmp_path / "ref.csv", f).read_bytes()
    for text in (b"-0.0", b"5e-324", b"1e-310", b"1e+16", b"1.5e-07", b"-2.5e+300"):
        assert text in got


@pytest.mark.parametrize("x_stride", [1, 4])
def test_stft_and_coeffs_csv_match_record_writers(tmp_path, monkeypatch, x_stride):
    """The streamed STFT export writes the bytes of the dense stft's values
    through the record-by-record writer, strided and not, from one block of
    _stft_blocks and from blocks of 5 x nodes."""
    g = GridSpec(1, 8.0, 128)
    w = Window.gaussian(g)
    f = Signal.from_generator(g, gaussian_generator())
    data = stft(f, w, x_stride=x_stride)
    ref = _stft_csv_reference(tmp_path / "sref.csv", data).read_bytes()
    assert len(ref.splitlines()) == 2 + data.values.size
    assert stft_to_csv(tmp_path / "s.csv", f, w, x_stride).read_bytes() == ref
    monkeypatch.setattr(gabor, "_STFT_BLOCK_BYTES", 5 * 16 * g.size)
    assert stft_to_csv(tmp_path / "s.csv", f, w, x_stride).read_bytes() == ref
    c = gabor_analysis(f, w, GaborLattice.for_grid(g, 0.5, 0.5, k_radius=3, n_radius=5))
    got = coeffs_to_csv(tmp_path / "c.csv", c).read_bytes()
    assert got == _coeffs_csv_reference(tmp_path / "cref.csv", c).read_bytes()
    assert got.splitlines()[2].startswith(b"-3,-5,")


def test_indexed_csv_traced_peak(tmp_path, monkeypatch):
    """_indexed_csv formats its rows one write block at a time: with 1024
    lines a block, a 64 x 1024 array traces under its own 1 MiB of values,
    where formatting every field up front traced about 19 MB."""
    monkeypatch.setattr(persist, "_LINES_PER_WRITE", 2 ** 10)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((64, 1024)) + 1j * rng.standard_normal((64, 1024))
    tracemalloc.start()
    try:
        path = persist._indexed_csv(tmp_path / "s.csv", ["k", "n", "re", "im"], vals,
                                    [range(64), range(1024)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vals.nbytes
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + vals.size
    last = complex(vals[-1, -1])
    assert lines[-1] == f"63,1023,{last.real!r},{last.imag!r}"


def _whole_array_exports(m, min_abs):
    """The CSV text and binary bytes of the exports before they walked row
    blocks: one record selection over the whole array, one joined text."""
    e = m.entries
    mag = np.hypot(e.real, e.imag)
    i, j = np.nonzero(~(mag <= min_abs))
    mag, phase = mag[i, j], np.angle(e[i, j])
    reprs = lambda a: np.array(list(map(repr, np.ravel(a).tolist())), dtype=object)
    pos = reprs(m.k_phys[:, 0]) + "," + reprs(m.n_phys[:, 0])
    lines = map(",".join, zip(pos[i], pos[j], reprs(mag), reprs(phase)))
    text = "\n".join([SCHEMA_LINE, "kp,np,k,n,abs,phase", *lines]) + "\n"
    ki = np.rint(m.k_phys[:, 0] / m.lattice.alpha).astype("<i4")
    ni = np.rint(m.n_phys[:, 0] / m.lattice.beta).astype("<i4")
    rec = np.empty(len(i), dtype=MATRIX_RECORD)
    rec["kp"], rec["np"], rec["k"], rec["n"] = ki[i], ni[i], ki[j], ni[j]
    rec["abs"], rec["phase"] = mag, phase
    return text.encode("ascii"), rec.tobytes()


@pytest.mark.parametrize("lines_per_write", [1, 7, None])
@pytest.mark.parametrize("k_rows", [1, 5, None])
def test_matrix_exports_match_whole_array_form(tmp_path, xphi_matrix, monkeypatch,
                                                k_rows, lines_per_write):
    """Row blocks of one k' row, of five and the whole matrix, and writes of
    1, 7 and the default number of lines, give the bytes of the whole-array
    exports, NaN entries included; the second min_abs empties the blocks of
    the first and last k' rows, and the third keeps only the NaN entries."""
    lat = xphi_matrix.lattice
    nk, nn = len(lat.k_index), len(lat.n_index)
    monkeypatch.setattr(operators, "ROW_BLOCK_BYTES",
                        (k_rows or nk) * nn * xphi_matrix.entries[0].nbytes)
    if lines_per_write:
        monkeypatch.setattr(persist, "_LINES_PER_WRITE", lines_per_write)
    entries = xphi_matrix.entries.copy()
    entries[nn + 3, 7] = entries[-nn - 1, 0] = np.nan
    M = dataclasses.replace(xphi_matrix, entries=entries)
    mag = np.abs(entries).reshape(nk, nn, -1)
    edge = np.nanmax(mag[[0, -1]])
    assert edge < np.nanmax(mag[1:-1])
    for min_abs in (0.0, edge, np.nanmax(mag)):
        text, raw = _whole_array_exports(M, min_abs)
        assert matrix_to_csv(tmp_path / "m.csv", M, min_abs=min_abs).read_bytes() == text
        assert matrix_to_binary(tmp_path / "m.bin", M, min_abs=min_abs).read_bytes() == raw
        assert text.count(b",nan,nan\n") == 2
        assert np.isnan(np.frombuffer(raw, dtype=MATRIX_RECORD)["abs"]).sum() == 2


@pytest.mark.parametrize("lines_per_write", [1, 7, None])
def test_signal_and_stft_csv_match_joined_text(tmp_path, monkeypatch, lines_per_write):
    """Chunked writes give the bytes of the one joined text they replaced."""
    if lines_per_write:
        monkeypatch.setattr(persist, "_LINES_PER_WRITE", lines_per_write)
    g = GridSpec(1, 8.0, 128)
    f = Signal.from_generator(g, gaussian_generator())
    data = stft(f, Window.gaussian(g), x_stride=4)

    def joined(header, rows):
        lines = (",".join(repr(v) for v in row) for row in rows)
        return ("\n".join([SCHEMA_LINE, header, *lines]) + "\n").encode("ascii")

    got = signal_to_csv(tmp_path / "s.csv", f).read_bytes()
    assert got == joined("i0,re,im", ((i, v.real, v.imag)
                                      for i, v in enumerate(f.samples.tolist())))
    got = stft_to_csv(tmp_path / "t.csv", f, Window.gaussian(g), 4).read_bytes()
    assert got == joined("k,n,re,im", ((i, k, v.real, v.imag)
                                       for i, row in enumerate(data.values.tolist())
                                       for k, v in enumerate(row)))


class TestDenseSizeGuard:
    """gabor_matrix refuses a lattice whose atom table, operator outputs and
    entries exceed DENSE_BYTES, before it allocates any of them."""

    def test_cli_refuses_40401_atoms(self, tmp_path, capsys):
        out = tmp_path / "m"
        tracemalloc.start()
        try:
            code = main(["matrix", "--grid", "4096,16", "--radius", "100",
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert "40401 atoms" in err and "DENSE_BYTES" in err
        assert not out.exists()
        # the window and the lattice only: one 4096-sample grid is 64 KiB
        assert peak < 2 ** 20

    def test_limit_is_inclusive(self, monkeypatch):
        g = GridSpec(1, 8.0, 128)
        lat = GaborLattice.for_grid(g, 0.5, 0.5, k_radius=2, n_radius=2)
        op = OperatorHandle("pseudo_kn", symbol_from_name("one"), None, g)
        n_bytes = 16 * lat.num_atoms * (2 * g.size + lat.num_atoms)
        monkeypatch.setattr(operators, "DENSE_BYTES", n_bytes)
        assert gabor_matrix(op, Window.gaussian(g), lat).num_atoms == 25
        monkeypatch.setattr(operators, "DENSE_BYTES", n_bytes - 1)
        monkeypatch.setattr(operators, "_atom_table", None)  # never reached
        with pytest.raises(DenseSizeError, match="25 atoms on 128 grid points"):
            gabor_matrix(op, Window.gaussian(g), lat)
        assert issubclass(DenseSizeError, ValueError)


def test_matrix_exports_agree(tmp_path):
    out = tmp_path / "m"
    assert main(["matrix", "--radius", "4", "--out", str(out)]) == 0
    csv = np.loadtxt(out / "matrix.csv", delimiter=",", skiprows=2, ndmin=2)
    rec = np.fromfile(out / "matrix.bin", dtype=MATRIX_RECORD)
    assert csv.shape == (len(rec), 6) and len(rec) > 0
    # the CSV holds physical positions, the binary file lattice indices
    for col, field, step in ((0, "kp", 0.5), (1, "np", 0.5), (2, "k", 0.5), (3, "n", 0.5)):
        assert np.array_equal(np.rint(csv[:, col] / step).astype(np.int32), rec[field])
    for col, field in ((4, "abs"), (5, "phase")):
        assert csv[:, col].tobytes() == rec[field].tobytes()


class TestRunner:
    def test_fl_growth_run_and_manifest(self, tmp_path):
        cfg = parse_config(TINY_FL)
        res = run_experiment("fl_growth", cfg, tmp_path / "run", seed=1)
        assert res.exit_code == 0
        man = load_manifest(tmp_path / "run" / "fl_growth.manifest.json")
        assert man.status == "done"
        assert man.outputs and all("sha256" in o for o in man.outputs)
        assert man.error == ""
        assert man.numpy_version == np.__version__

    def test_failed_run_marks_manifest(self, tmp_path, monkeypatch):
        from fiolab import runner

        def boom(out, plot, jobs, seed, *, p=1.0, n_sweep=(8,), diffeo_c=0.3,
                 grid=GridSpec(1, 2.0, 512)):
            raise RuntimeError("diverged at n=64")

        monkeypatch.setitem(runner.EXPERIMENTS, "fl_growth", boom)
        with pytest.raises(RuntimeError, match="diverged"):
            run_experiment("fl_growth", parse_config(TINY_FL), tmp_path / "f", seed=1)
        path = tmp_path / "f" / "fl_growth.manifest.json"
        man = load_manifest(path)
        assert man.status == "failed"
        assert man.error == "RuntimeError: diverged at n=64"
        assert man.finished_at and not man.outputs
        # manifests written before the error field existed still load
        data = json.loads(path.read_text())
        del data["error"], data["numpy_version"], data["hash_mismatch"]
        path.write_text(json.dumps(data))
        assert load_manifest(path).error == ""

    def test_determinism_and_rerun(self, tmp_path):
        cfg = parse_config(TINY_FL)
        run_experiment("fl_growth", cfg, tmp_path / "a", seed=1)
        run_experiment("fl_growth", cfg, tmp_path / "b", seed=1)
        csv_a = (tmp_path / "a" / "fl_growth.csv").read_bytes()
        csv_b = (tmp_path / "b" / "fl_growth.csv").read_bytes()
        assert csv_a == csv_b
        man_a = tmp_path / "a" / "fl_growth.manifest.json"
        res = rerun_from_manifest(man_a, tmp_path / "c")
        assert (tmp_path / "c" / "fl_growth.csv").read_bytes() == csv_a
        assert res.exit_code == 0 and "hash_mismatch" not in res.summary
        assert load_manifest(tmp_path / "c" / "fl_growth.manifest.json").hash_mismatch == []

    def test_rerun_checks_stored_hashes(self, tmp_path, capsys):
        run_experiment("fl_growth", parse_config(TINY_FL), tmp_path / "a", seed=1)
        path = tmp_path / "a" / "fl_growth.manifest.json"
        data = json.loads(path.read_text())
        (entry,) = [o for o in data["outputs"] if o["path"] == "fl_growth.csv"]
        entry["sha256"] = "0" * 64
        path.write_text(json.dumps(data))
        code = main(["experiment", "--from-manifest", str(path),
                     "--out", str(tmp_path / "c")])
        assert code == 2
        assert "hash_mismatch = ['fl_growth.csv']" in capsys.readouterr().out
        rerun = load_manifest(tmp_path / "c" / "fl_growth.manifest.json")
        assert rerun.status == "done"
        assert rerun.hash_mismatch == ["fl_growth.csv"]

    def test_rerun_of_output_manifest_names_schema_change(self, tmp_path, capsys):
        run_experiment("fl_growth", parse_config(TINY_FL), tmp_path / "a", seed=1)
        path = tmp_path / "a" / "fl_growth.manifest.json"
        data = json.loads(path.read_text())
        data["config_text"] += "[output]\nseed = 1\n"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"predates the removal of \[output\]"):
            rerun_from_manifest(path, tmp_path / "b")
        code = main(["experiment", "--from-manifest", str(path),
                     "--out", str(tmp_path / "c")])
        assert code == 1
        err = capsys.readouterr().err
        assert "predates the removal of [output] from the config schema" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--jobs", "2"]])
    def test_rerun_refuses_seed_and_jobs(self, tmp_path, capsys, flag):
        run_experiment("fl_growth", parse_config(TINY_FL), tmp_path / "a", seed=1)
        path = tmp_path / "a" / "fl_growth.manifest.json"
        code = main(["experiment", "--from-manifest", str(path),
                     "--out", str(tmp_path / "b"), *flag])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--from-manifest does not accept {flag[0]}" in err
        assert "the rerun takes seed and jobs from the manifest" in err
        assert not (tmp_path / "b").exists()

    def test_rerun_of_manifest_with_dropped_key_is_refused(self, tmp_path, capsys):
        run_experiment("fl_growth", parse_config(TINY_FL), tmp_path / "a", seed=1)
        path = tmp_path / "a" / "fl_growth.manifest.json"
        data = json.loads(path.read_text())
        data["config_text"] = data["config_text"].replace(
            "[experiment]\n", "[experiment]\nrefine = 1\n")
        path.write_text(json.dumps(data))
        code = main(["experiment", "--from-manifest", str(path),
                     "--out", str(tmp_path / "b")])
        assert code == 1
        assert "unknown key 'refine' in [experiment]" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_config_name_must_match_experiment(self, tmp_path, capsys):
        lp = tmp_path / "lp.ini"
        lp.write_text(default_config("lp_threshold").canonical_text())
        with pytest.raises(ConfigError, match="'lp_threshold', not 'm1_sharpness'"):
            run_experiment("m1_sharpness", load_config(lp), tmp_path / "a")
        code = main(["experiment", "m1_sharpness", "--config", str(lp),
                     "--out", str(tmp_path / "b")])
        assert code == 1
        assert "not 'm1_sharpness'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.manifest.json"))
        nameless = parse_config(TINY_FL.replace("name = fl_growth\n", ""))
        assert run_experiment("fl_growth", nameless, tmp_path / "c").exit_code == 0
        assert (tmp_path / "c" / "fl_growth.manifest.json").is_file()

    @pytest.mark.parametrize("name,cfg", [
        ("lp_threshold", "p = 4\nm = 0\nn_sweep = 8,16,32\n"),
        ("m1_sharpness", "p = 1\nm1 = -0.25\nn_sweep = 16,32,64\n"),
    ])
    def test_sweep_csv_independent_of_jobs(self, tmp_path, name, cfg):
        cfg = parse_config(f"[experiment]\nname = {name}\n{cfg}diffeo_c = 0.3\n")
        csvs = []
        for jobs in (1, 2):
            run_experiment(name, cfg, tmp_path / str(jobs), jobs=jobs, seed=0)
            csvs.append((tmp_path / str(jobs) / f"{name}.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_l2_stability_csv_independent_of_seed(self, tmp_path):
        """Criterion c15's L^2 norm draws no start vector, so the seed moves
        nothing."""
        csvs = []
        for seed in (0, 7):
            res = run_experiment("l2_stability", None, tmp_path / str(seed), seed=seed)
            assert res.exit_code == 0
            csvs.append((tmp_path / str(seed) / "l2_stability.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_fl_growth_bundled_default(self, tmp_path):
        res = run_experiment("fl_growth", None, tmp_path / "d", seed=0)
        assert res.exit_code == 0
        assert res.summary["slope"] >= 0.4
        header, rows = read_csv(tmp_path / "d" / "fl_growth.csv")
        assert header == ["n", "norm_in", "norm_out", "ratio"]
        assert len(rows) == 5
        # the manifest holds the resolved config, [grid] included, and it
        # parses back to the config that ran
        path = tmp_path / "d" / "fl_growth.manifest.json"
        text = load_manifest(path).config_text
        assert text == default_config("fl_growth").canonical_text()
        assert parse_config(text).canonical_text() == text
        assert parse_config(text).params()["grid"] == GridSpec(1, 2.0, 4096)
        rerun = rerun_from_manifest(path, tmp_path / "e")
        assert rerun.exit_code == 0 and "hash_mismatch" not in rerun.summary

    def test_manifest_records_resolved_config(self, tmp_path):
        # a partial config runs with every other key at its default, and the
        # manifest says so; norm_equivalence's q defaults to p, so it is
        # recorded only when given
        cfg = parse_config("[experiment]\np = 2\n")
        run_experiment("norm_equivalence", cfg, tmp_path / "ne", seed=3)
        text = load_manifest(tmp_path / "ne" / "norm_equivalence.manifest.json").config_text
        resolved = parse_config(text)
        assert resolved.get("experiment", "p") == 2.0
        assert resolved.get("experiment", "q") is None
        assert resolved.sections["lattice"] == {"alpha": 0.5, "beta": 0.5}
        assert resolved.params()["grid"] == GridSpec(1, 16.0, 1024)
        run_experiment("norm_equivalence", parse_config("[experiment]\np = 2\nq = 2\n"),
                       tmp_path / "pq", seed=3)
        assert (tmp_path / "ne" / "norm_equivalence.csv").read_bytes() == \
            (tmp_path / "pq" / "norm_equivalence.csv").read_bytes()

    def test_norm_equivalence_runner(self, tmp_path):
        cfg = parse_config("""\
[grid]
dim = 1
half_width = 8
samples_per_axis = 256

[lattice]
alpha = 0.5
beta = 0.5

[experiment]
name = norm_equivalence
p = 1
q = 1
""")
        res = run_experiment("norm_equivalence", cfg, tmp_path / "ne", seed=3)
        assert res.exit_code == 0
        assert res.summary["spread"] < 10.0


class TestCli:
    def test_norm_command(self, capsys):
        code = main(["norm", "gaussian", "--p", "2", "--grid", "256,8"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 2 ** -0.25) < 1e-6

    def test_validate_phase(self, capsys):
        assert main(["validate", "phase:phase_xphi(0.3)"]) == 0
        assert "passed=True" in capsys.readouterr().out

    def test_validate_symbol(self, capsys):
        assert main(["validate", "symbol:model_sg(-0.5,-0.5)"]) == 0

    def test_bad_input_exit_code(self, capsys):
        assert main(["norm", "quaternion", "--grid", "256,8"]) == 1

    def test_signal_spec_parse(self, capsys):
        """Signal names parse as registry names do: a trailing comma or a
        missing parenthesis is a validation failure."""
        assert main(["norm", "gaussian( 1.0 )", "--grid", "256,8"]) == 0
        capsys.readouterr()
        for spec in ("gaussian(1,)", "gaussian(1", "bump(0.5,,0.4)"):
            assert main(["norm", spec, "--grid", "256,8"]) == 1
            assert "error:" in capsys.readouterr().err

    def test_stft_traced_peak(self, tmp_path, monkeypatch):
        """fiolab stft streams the STFT to its CSV: at N = 1024 the whole
        STFT is 16 MiB, and the command traces about 4.5 MB: a few 1 MiB
        blocks (the windowed rows of _stft_blocks, their DFT and its
        centred copy).  The lines are written one per block here, since
        formatting 2^20 of them under tracemalloc takes 25 s (and adds
        about 0.5 MB); test_indexed_csv_traced_peak bounds the formatting."""
        monkeypatch.setattr(persist, "_entry_lines", lambda values, axes: [str(len(values))])
        tracemalloc.start()
        try:
            assert main(["stft", "gaussian", "--grid", "1024,16",
                         "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20
        assert (tmp_path / "stft.csv").read_text().splitlines()[2:] == ["64"] * 16

    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_stft_bad_stride(self, tmp_path, capsys, stride):
        """A stride below 1 is a validation failure that writes nothing."""
        out = tmp_path / "o"
        assert main(["stft", "gaussian", "--grid", "128,4", "--out", str(out),
                     "--stride", stride]) == 1
        assert "stride" in capsys.readouterr().err
        assert not out.exists()

    def test_stft_and_apply(self, tmp_path, capsys):
        out = str(tmp_path / "o1")
        assert main(["stft", "gaussian", "--grid", "128,4", "--out", out,
                     "--stride", "4"]) == 0
        assert (tmp_path / "o1" / "stft.csv").exists()
        out2 = str(tmp_path / "o2")
        assert main(["apply", "gaussian", "--grid", "128,4", "--symbol",
                     "eta_power(-1.0)", "--out", out2]) == 0
        assert (tmp_path / "o2" / "applied.csv").exists()

    def test_gabor_bounds(self, capsys):
        assert main(["gabor", "bounds", "--grid", "256,8"]) == 0
        assert "frame=True" in capsys.readouterr().out

    def test_matrix_command(self, tmp_path):
        out = str(tmp_path / "m")
        assert main(["matrix", "--grid", "256,8", "--radius", "2",
                     "--symbol", "one", "--out", out]) == 0
        assert (tmp_path / "m" / "matrix.csv").exists()
        assert (tmp_path / "m" / "matrix.bin").exists()

    def test_experiment_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY_FL)
        out = str(tmp_path / "exp")
        code = main(["experiment", "fl_growth", "--config", str(cfg_path),
                     "--out", out, "--seed", "1"])
        assert code == 0
        assert (tmp_path / "exp" / "fl_growth.csv").exists()

    def test_experiment_needs_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment"])

    @pytest.mark.parametrize("argv", [
        ["experiment", "fl_growth", "--grid", "512,2"],
        ["validate", "phase:phase_xphi(0.3)", "--out", "x"],
        ["norm", "gaussian", "--out", "x"],
        ["stft", "gaussian", "--seed", "1"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err
