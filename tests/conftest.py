import numpy as np
import pytest

from fiolab.grid import (
    GridSpec,
    Signal,
    bump_generator,
    gaussian_generator,
    random_schwartz_signal,
)


@pytest.fixture(scope="session")
def grid256():
    return GridSpec(1, 8.0, 256)


@pytest.fixture(scope="session")
def grid512():
    return GridSpec(1, 8.0, 512)


@pytest.fixture(scope="session")
def grid1024():
    return GridSpec(1, 16.0, 1024)


@pytest.fixture(scope="session")
def gauss256(grid256):
    return Signal.from_generator(grid256, gaussian_generator())


def make_corpus(grid, count, seed=0):
    """Deterministic well-concentrated test signals."""
    rng = np.random.default_rng(seed)
    out = [random_schwartz_signal(grid, rng) for _ in range(count - 2)]
    out.append(Signal.from_generator(grid, gaussian_generator(1.0)))
    scale = min(1.0, grid.half_width / 8.0)
    out.append(Signal.from_generator(
        grid, bump_generator(center=0.0, half_width=2.0 * scale)))
    return out
