"""The dense simplex grid that the brute-force oracles search."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def simplex_grid(n: int, resolution: float = 1e-3) -> np.ndarray:
    """Every point of the n-simplex (n = 2 or 3) whose coordinates are
    multiples of ``resolution``, ordered by the first coordinate, then the
    second.  Built once per argument pair and returned read-only."""
    steps = int(round(1.0 / resolution))
    if n == 2:
        w = np.arange(steps + 1) / steps
        grid = np.stack([1.0 - w, w], axis=1)
    elif n == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = i + j <= steps
        i, j = i[keep], j[keep]
        grid = np.stack([i / steps, j / steps, (steps - i - j) / steps], axis=1)
    else:
        raise NotImplementedError
    grid.setflags(write=False)
    return grid
