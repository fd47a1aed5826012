"""CSV and binary exports with a stable, bit-reproducible layout.

Every CSV starts with the version comment "# schema=1" followed by a header
row.  Floats are written with repr (shortest round-trip form), so identical
inputs give byte-identical files.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .gabor import GaborCoeffs, StftData
from .grid import GridSpec, Signal
from .operators import GaborMatrix

SCHEMA_LINE = "# schema=1"
MATRIX_RECORD = np.dtype([("kp", "<i4"), ("np", "<i4"), ("k", "<i4"), ("n", "<i4"),
                          ("abs", "<f8"), ("phase", "<f8")])


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [SCHEMA_LINE, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError(f"{path}: missing schema line")
    header = lines[1].split(",")
    return header, [ln.split(",") for ln in lines[2:] if ln]


def signal_to_csv(path, f: Signal) -> Path:
    d = f.grid.dim
    header = [f"i{a}" for a in range(d)] + ["re", "im"]
    idx = np.indices(f.grid.shape).reshape(d, -1).T
    flat = f.samples.ravel()
    rows = ([*map(int, ix), float(v.real), float(v.imag)] for ix, v in zip(idx, flat))
    return write_csv(path, header, rows)


def signal_from_csv(path, grid: GridSpec) -> Signal:
    header, rows = read_csv(path)
    d = grid.dim
    vals = np.zeros(grid.shape, dtype=complex)
    for row in rows:
        ix = tuple(int(v) for v in row[:d])
        vals[ix] = float(row[d]) + 1j * float(row[d + 1])
    return Signal(grid, vals)


def stft_to_csv(path, data: StftData) -> Path:
    if data.grid.dim != 1:
        raise NotImplementedError("STFT CSV export covers d=1")
    rows = []
    for i in range(data.values.shape[0]):
        for k in range(data.values.shape[1]):
            v = data.values[i, k]
            rows.append([int(i), int(k), float(v.real), float(v.imag)])
    return write_csv(path, ["k", "n", "re", "im"], rows)


def coeffs_to_csv(path, c: GaborCoeffs) -> Path:
    lat = c.lattice
    if lat.grid.dim != 1:
        raise NotImplementedError("coefficient CSV export covers d=1")
    rows = []
    for i, k in enumerate(lat.k_index):
        for j, n in enumerate(lat.n_index):
            v = c.values[i, j]
            rows.append([int(k), int(n), float(v.real), float(v.imag)])
    return write_csv(path, ["k", "n", "re", "im"], rows)


def matrix_to_csv(path, m: GaborMatrix, min_abs: float = 0.0) -> Path:
    """Rows (k', n', k, n, abs, phase), d=1 lattices; zeros can be dropped."""
    if m.lattice.grid.dim != 1:
        raise NotImplementedError("matrix CSV export covers d=1")
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


def matrix_to_binary(path, m: GaborMatrix, min_abs: float = 0.0) -> Path:
    """Fixed-width little-endian records: 4 x int32 lattice indices followed
    by 2 x float64 (abs, phase)."""
    if m.lattice.grid.dim != 1:
        raise NotImplementedError("binary export covers d=1")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    e = m.entries
    # hypot is Python's abs(complex) bit for bit; np.abs may differ in the last ulp
    mag = np.hypot(e.real, e.imag)
    i, j = np.nonzero(mag > min_abs)
    ki = np.rint(m.k_phys[:, 0] / m.lattice.alpha).astype("<i4")
    ni = np.rint(m.n_phys[:, 0] / m.lattice.beta).astype("<i4")
    rec = np.empty(len(i), dtype=MATRIX_RECORD)
    rec["kp"], rec["np"], rec["k"], rec["n"] = ki[i], ni[i], ki[j], ni[j]
    rec["abs"], rec["phase"] = mag[i, j], np.angle(e[i, j])
    rec.tofile(path)
    return path
