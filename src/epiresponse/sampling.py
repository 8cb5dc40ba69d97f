"""Uniform sample grids, the move table and the event-log -> grid sampler.

A stochastic run changes its state only at jump times.  Instead of
building one row per grid point while it runs, an engine appends the time
of every realized jump to the log of its move code and turns the logs
into grid samples once, afterwards: the state at grid time ``g`` includes
every jump at or before ``g``.  Both stochastic engines (`ctmc` and
`traces`) log the moves of `MOVES` this way and share the work budgets.
"""

import math

import numpy as np

__all__ = [
    "MAX_CLOCK_EVENTS",
    "MAX_GRID_POINTS",
    "MOVES",
    "uniform_grid",
    "counts_on_grid",
]

# The four transitions as (dS, dI, dP): S->I, S->P, P->S, I->P.  Every
# row sums to 0, so a logged jump conserves the population.
MOVES = ((-1, 1, 0), (-1, 0, 1), (1, 0, -1), (0, -1, 1))

# A grid point costs 8 bytes of time plus the samples built on it: 24
# bytes of jump-process counts, 72 bytes of trace averages (two classes)
# per buffer, and about 250 bytes once the CLI turns a row into Python
# objects and CSV text.  `simulate` at the cap peaks near 320 MB.
MAX_GRID_POINTS = 10**6

# Expected clock events a run may draw; at the cap a run takes about a
# minute.  The jump process takes ~0.35 us an event and logs 8 bytes per
# realized jump (at most 0.8 GB at the cap).  Trace replay takes ~0.7 us
# an event and holds a run's whole clock stream, ~175 bytes an event: a
# single-run experiment near the cap needs ~17 GB.
MAX_CLOCK_EVENTS = 10**8


def uniform_grid(t_end: float, dt: float) -> np.ndarray:
    """The sample times ``0, dt, 2*dt, ...`` up to ``t_end``; the 1e-9
    slack keeps ``t_end`` itself when it is a multiple of ``dt`` up to
    round-off.  A grid of more than `MAX_GRID_POINTS` is refused."""
    steps = t_end / dt + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(
            f"a sample grid over {t_end:g} at step {dt:g} needs {steps:.3g} "
            f"points, more than the cap of {MAX_GRID_POINTS:.0e}: raise the step"
        )
    return np.arange(int(math.floor(steps)) + 1) * dt


def counts_on_grid(initial, jumps, logs, grid) -> np.ndarray:
    """Integer state at every time of ``grid`` (sorted ascending).

    The state starts at ``initial`` (length m); ``logs[k]`` holds the
    times of the jumps that add row k of the (n_codes, m) jump table
    ``jumps``.  Row r of the result includes every jump with time <=
    ``grid[r]``; jumps after the last grid time are dropped.  A log need
    not be sorted.  Beyond one index per logged jump, memory is
    O(len(grid) * n_codes), whatever the number of jumps.
    """
    jumps = np.asarray(jumps, dtype=np.int64)
    cum = np.zeros((grid.size, len(jumps)), dtype=np.int64)
    for k, log in enumerate(logs):
        per_cell = np.bincount(np.searchsorted(grid, log), minlength=grid.size + 1)
        np.cumsum(per_cell[:-1], out=cum[:, k])
    counts = cum @ jumps
    counts += np.asarray(initial, dtype=np.int64)
    return counts
