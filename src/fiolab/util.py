"""Small shared helpers: parallel map, log-log fits."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


def default_jobs() -> int:
    return os.cpu_count() or 1


def pmap(fn: Callable, items: Iterable, jobs: int | None = None) -> list:
    """Map preserving input order; threads used only when jobs > 1.

    Results are gathered in submission order, so reductions downstream are
    deterministic regardless of scheduling.
    """
    items = list(items)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if jobs == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


@dataclass
class GrowthFit:
    """Least-squares fit of log(value) against log(sweep parameter).

    r_squared is NaN for flat data (no variance to explain); use flat_ratio
    (max/min of the raw values) to certify flatness instead.
    """

    slope: float
    r_squared: float
    sweep: tuple[tuple[float, float], ...]

    @property
    def flat_ratio(self) -> float:
        vals = [v for _, v in self.sweep]
        return max(vals) / min(vals)


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> GrowthFit:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive sweep values and norms")
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = float("nan") if ss_tot < 1e-20 else 1.0 - ss_res / ss_tot
    return GrowthFit(
        slope=float(coef[0]),
        r_squared=r2,
        sweep=tuple(zip(map(float, xs), map(float, ys))),
    )
