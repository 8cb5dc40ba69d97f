"""Uniform sample grids and the event-log -> grid sampler.

A stochastic run changes its state only at jump times.  Instead of
building one row per grid point while it runs, an engine logs
``(time, code)`` for every realized jump and turns the log into grid
samples once, afterwards: the state at grid time ``g`` includes every
jump at or before ``g``.
"""

import math

import numpy as np

__all__ = ["uniform_grid", "counts_on_grid"]


def uniform_grid(t_end: float, dt: float) -> np.ndarray:
    """The sample times ``0, dt, 2*dt, ...`` up to ``t_end``; the 1e-9
    slack keeps ``t_end`` itself when it is a multiple of ``dt`` up to
    round-off."""
    return np.arange(int(math.floor(t_end / dt + 1e-9)) + 1) * dt


def counts_on_grid(initial, jumps, times, codes, grid) -> np.ndarray:
    """Integer state at every time of ``grid`` (sorted ascending).

    The state starts at ``initial`` (length m); logged jump k, at
    ``times[k]``, adds row ``jumps[codes[k]]`` of the (n_codes, m) jump
    table.  Row r of the result includes every jump with time <=
    ``grid[r]``; jumps after the last grid time are dropped.  The log
    need not be sorted.  Beyond one index per logged jump, memory is
    O(len(grid) * n_codes), whatever the number of jumps.
    """
    jumps = np.asarray(jumps, dtype=np.int64)
    n_codes = len(jumps)
    cell = np.searchsorted(grid, np.asarray(times, dtype=float))
    per_cell = np.bincount(
        cell * n_codes + np.asarray(codes, dtype=np.int64),
        minlength=(grid.size + 1) * n_codes,
    ).reshape(grid.size + 1, n_codes)
    # In place where possible: each full-size temporary is one more large
    # block for the allocator to keep, which shows in peak RSS.
    cum = np.cumsum(per_cell[:-1], axis=0, out=per_cell[:-1])
    counts = cum @ jumps
    counts += np.asarray(initial, dtype=np.int64)
    return counts
