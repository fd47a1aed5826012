"""CSV and binary exports with a stable, bit-reproducible layout.

Every CSV starts with the version comment "# schema=1" followed by a header
row.  Floats are written with repr (shortest round-trip form), so identical
inputs give byte-identical files.  Lines go to the open file in chunks of
_LINES_PER_WRITE, never joined into one text.  The Gabor-matrix exports take
their records from one selection, _matrix_records, which walks the entries
in the row blocks of operators._row_blocks: an export holds the matrix plus
one block's records.
"""
from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .gabor import GaborCoeffs, Window, _centred_stft_blocks
from .grid import GridSpec, Signal
from .operators import GaborMatrix, _row_blocks

SCHEMA_LINE = "# schema=1"
MATRIX_RECORD = np.dtype([("kp", "<i4"), ("np", "<i4"), ("k", "<i4"), ("n", "<i4"),
                          ("abs", "<f8"), ("phase", "<f8")])
_LINES_PER_WRITE = 2 ** 12


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    return _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows))


def _write_lines(path, header: Sequence[str], lines: Iterable[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = chain([SCHEMA_LINE, ",".join(header)], lines)
    with path.open("w", encoding="ascii", newline="\n") as fh:
        while chunk := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\n".join(chunk) + "\n")
    return path


def _reprs(a) -> np.ndarray:
    """Each entry as write_csv formats it: repr of the Python int or float."""
    return np.array(list(map(repr, np.ravel(a).tolist())), dtype=object)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError(f"{path}: missing schema line")
    header = lines[1].split(",")
    return header, [ln.split(",") for ln in lines[2:] if ln]


def _entry_lines(values, axes: Sequence[Sequence[int]]):
    """One line per entry of values, row-major: its label on each axis, re,
    im.  Lines are formatted _LINES_PER_WRITE at a time, as they are read."""
    v = np.ravel(values)
    axes = [np.asarray(a) for a in axes]
    for lo in range(0, len(v), _LINES_PER_WRITE):
        block = v[lo:lo + _LINES_PER_WRITE]
        at = np.unravel_index(np.arange(lo, lo + len(block)), [len(a) for a in axes])
        fields = [a[i] for a, i in zip(axes, at)] + [block.real, block.imag]
        yield from map(",".join, zip(*(map(repr, f.tolist()) for f in fields)))


def _indexed_csv(path, header: Sequence[str], values, axes: Sequence[Sequence[int]]) -> Path:
    return _write_lines(path, header, _entry_lines(values, axes))


def signal_to_csv(path, f: Signal) -> Path:
    header = [f"i{a}" for a in range(f.grid.dim)] + ["re", "im"]
    return _indexed_csv(path, header, f.samples, [range(n) for n in f.grid.shape])


def signal_from_csv(path, grid: GridSpec) -> Signal:
    header, rows = read_csv(path)
    d = grid.dim
    vals = np.zeros(grid.shape, dtype=complex)
    a = np.array(rows, dtype=float).reshape(-1, d + 2)
    vals[tuple(a[:, :d].astype(int).T)] = a[:, d] + 1j * a[:, d + 1]
    return Signal(grid, vals)


def stft_to_csv(path, f: Signal, g: Window, x_stride: int) -> Path:
    """Rows (k, n, re, im) of the STFT of f with window g at every
    x_stride-th x node, d = 1: the rows of stft(f, g, x_stride).values,
    written block by block from gabor._centred_stft_blocks, so the whole
    STFT is never held.  A stride below 1 is refused before the file is
    opened."""
    if f.grid.dim != 1:
        raise NotImplementedError("STFT CSV export covers d=1")
    if x_stride < 1:
        raise ValueError(f"STFT stride must be at least 1, got {x_stride}")
    n = f.grid.samples_per_axis
    lines = (line for i0, rows in _centred_stft_blocks(f, g, x_stride)
             for line in _entry_lines(rows, [range(i0, i0 + len(rows)), range(n)]))
    return _write_lines(path, ["k", "n", "re", "im"], lines)


def coeffs_to_csv(path, c: GaborCoeffs) -> Path:
    lat = c.lattice
    if lat.grid.dim != 1:
        raise NotImplementedError("coefficient CSV export covers d=1")
    return _indexed_csv(path, ["k", "n", "re", "im"], c.values, [lat.k_index, lat.n_index])


def _matrix_records(m: GaborMatrix, min_abs: float):
    """Row-major entries (i', i) of a d=1 matrix whose modulus is not <= min_abs
    (NaN entries are kept), as (i', i, modulus, phase), one tuple of arrays
    per row block of operators._row_blocks."""
    if m.lattice.grid.dim != 1:
        raise NotImplementedError("matrix export covers d=1")

    def blocks():
        for rows in _row_blocks(m):
            e = m.entries[rows]
            # hypot is Python's abs(complex) bit for bit; np.abs may differ in the last ulp
            mag = np.hypot(e.real, e.imag)
            i, j = np.nonzero(~(mag <= min_abs))
            yield i + rows.start, j, mag[i, j], np.angle(e[i, j])

    return blocks()


def matrix_to_csv(path, m: GaborMatrix, min_abs: float = 0.0) -> Path:
    """Rows (k', n', k, n, abs, phase), d=1 lattices; zeros can be dropped.

    The four positions are physical (alpha*k', beta*n', alpha*k, beta*n);
    matrix_to_binary stores the integer lattice indices instead."""
    records = _matrix_records(m, min_abs)
    pos = _reprs(m.k_phys[:, 0]) + "," + _reprs(m.n_phys[:, 0])
    lines = (line for i, j, mag, phase in records for line in map(",".join, zip(
        pos[i], pos[j], map(repr, mag.tolist()), map(repr, phase.tolist()))))
    return _write_lines(path, ["kp", "np", "k", "n", "abs", "phase"], lines)


def matrix_to_binary(path, m: GaborMatrix, min_abs: float = 0.0) -> Path:
    """Fixed-width little-endian records: 4 x int32 lattice indices followed
    by 2 x float64 (abs, phase)."""
    records = _matrix_records(m, min_abs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ki = np.rint(m.k_phys[:, 0] / m.lattice.alpha).astype("<i4")
    ni = np.rint(m.n_phys[:, 0] / m.lattice.beta).astype("<i4")
    with path.open("wb") as fh:
        for i, j, mag, phase in records:
            rec = np.empty(len(i), dtype=MATRIX_RECORD)
            rec["kp"], rec["np"], rec["k"], rec["n"] = ki[i], ni[i], ki[j], ni[j]
            rec["abs"], rec["phase"] = mag, phase
            rec.tofile(fh)
    return path
