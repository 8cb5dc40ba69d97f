"""Uniform sample grids, the move table and the event-log -> grid sampler.

A stochastic run changes its state only at jump times.  Instead of
building one row per grid point while it runs, an engine appends the time
of every realized jump to the log of its move code and turns the logs
into grid samples once, afterwards: the state at grid time ``g`` includes
every jump at or before ``g``.  Both stochastic engines (`ctmc` and
`traces`) log the moves of `MOVES` this way and share the work budgets
and the agents' clock, `clock_events`.
"""

import math
from itertools import chain

import numpy as np

__all__ = [
    "MAX_CLOCK_EVENTS",
    "MAX_GRID_POINTS",
    "MOVES",
    "RUN_EVENTS",
    "check_work",
    "clock_events",
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
# minute.  The jump process takes ~0.35 us an event and trace replay ~0.7
# us; both log 8 bytes per realized jump (at most 0.8 GB at the cap) and
# hold one block of their clock stream at a time.
MAX_CLOCK_EVENTS = 10**8

# The fixed cost of one run, ~0.2 ms, in clock events of ~0.4 us: charged
# per run, it bounds many short runs as `MAX_CLOCK_EVENTS` bounds long ones.
RUN_EVENTS = 500


def check_work(what: str, events: float, runs: int = 0) -> None:
    """Refuse, naming ``what``, work past `MAX_CLOCK_EVENTS`: ``events`` clock
    events (a contact or a grid point counts as one), `RUN_EVENTS` a run."""
    work = events + runs * RUN_EVENTS
    if not work <= MAX_CLOCK_EVENTS:
        raise ValueError(
            f"{what}: {work:.3g} clock events of work, more than the budget "
            f"of {MAX_CLOCK_EVENTS:.0e}"
        )


def clock_events(seed, rate: float, t_end: float):
    """The events of a Poisson clock of constant ``rate`` over [0, t_end],
    as a C-level iterator of ``(t, u1, u2, u3)`` in time order.

    ``seed`` is an int or a sequence of ints, e.g. ``(base_seed, run)``
    for an independent substream.  Randomness is consumed in a fixed
    pattern, so runs are bit-identical for a given seed across platforms:
    blocks of min(65,536, e + 4 sqrt(e) + 16) events, e = rate * t_end,
    each drawn as its exponential gaps, then ``random((block, 3))``,
    until a block passes ``t_end``.  At rate 0 nothing is drawn.
    """
    return chain.from_iterable(_clock_blocks(seed, rate, t_end))


def _clock_blocks(seed, rate, t_end):
    if not rate > 0.0:
        return
    e = rate * t_end
    block = min(65_536, int(e + 4.0 * math.sqrt(e)) + 16)
    rng = np.random.default_rng(seed)
    t = 0.0
    while True:
        times = rng.exponential(1.0 / rate, block)
        uu = rng.random((block, 3))
        # The gaps become event times in place.  cumsum adds left to right,
        # so these are the same floats as t += gap per event.  A sum that
        # overflows to inf lies past t_end, so the overflow is harmless.
        times[0] += t
        with np.errstate(over="ignore"):
            np.cumsum(times, out=times)
        last = int(np.searchsorted(times, t_end, side="right"))
        yield zip(times[:last].tolist(), *uu[:last].T.tolist())
        if last < block:
            return
        t = float(times[-1])


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
