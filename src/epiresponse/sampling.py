"""Sample grids, moves, response tables and the event-log -> grid sampler.

A stochastic run changes its state only at jump times.  Instead of
building one row per grid point while it runs, an engine appends the time
of every realized jump to the log of its move code, in time order, and
turns the logs into grid samples once, afterwards (`held_states`: each
state and the grid rows that hold it): the state at grid time ``g``
includes every jump at or before ``g``.  Both stochastic engines
(`ctmc` and `traces`) log the moves of `MOVES` this way, read the response
at infected count k of n from one `response_table`, and share the work
budgets and the agents' clock, `clock_blocks`: each reads the clock's
numpy blocks, prepares what it can per block in numpy and loops in Python
only over the events whose outcome depends on the state.
"""

import math

import numpy as np

from .model import compile_response

__all__ = [
    "MAX_CLOCK_EVENTS",
    "MAX_GRID_POINTS",
    "MOVES",
    "RUN_EVENTS",
    "TABLE_EVENTS",
    "check_work",
    "clock_blocks",
    "response_table",
    "uniform_grid",
    "counts_on_grid",
    "held_states",
]

# The four transitions as (dS, dI, dP): S->I, S->P, P->S, I->P.  Every
# row sums to 0, so a logged jump conserves the population.
MOVES = ((-1, 1, 0), (-1, 0, 1), (1, 0, -1), (0, -1, 1))

# A grid point costs 8 bytes of time plus the samples built on it: 24
# bytes of jump-process counts (twice while `counts_on_grid` repeats the
# held states), for trace replay (two classes) 72 bytes in the
# experiment's sum and 72 in a run's repeated fractions, and about 250
# bytes once the CLI turns a row into Python objects and CSV text.
# `simulate` at the cap peaks near 320 MB.
MAX_GRID_POINTS = 10**6

# Expected clock events a run may draw; at the cap a run takes about a
# minute.  The jump process takes ~0.2 us an event at n = 10^4 (~0.35 us
# at n <= 1000) and trace replay ~0.13 us on a long run (~0.20 us on the
# 41-node bench trace, contacts and grid sampling included: a run there
# makes ~1,700 jumps on a 10^4-point grid, and `held_states` and the
# fractions on the held states take ~0.45 ms of it; 2-core x86 host,
# Python 3.11); both log 8 bytes per realized jump (at most 0.8 GB at the
# cap) and hold one clock block at a time, and `held_states` holds
# min(jumps, grid points) states.  A `response_table` holds 16 (flat) to
# 64 (sloped) bytes a count, 24-72 while it is built, at 0.2-0.5 us a
# count.
MAX_CLOCK_EVENTS = 10**8

# The fixed cost of one run, ~0.2 ms, in events of a short run (~0.4 us):
# charged per run, it bounds many short runs as `MAX_CLOCK_EVENTS` bounds long ones.
RUN_EVENTS = 500

# Events charged per table count: their 192 logged bytes cover its 72 peak
# bytes, and their time its 0.5 us, with room to spare.
TABLE_EVENTS = 24


def check_work(what: str, events: float, runs: int = 0) -> None:
    """Refuse, naming ``what``, work past `MAX_CLOCK_EVENTS`: ``events`` clock
    events (a contact or a grid point counts as one, a table count as
    `TABLE_EVENTS`), `RUN_EVENTS` a run."""
    work = events + runs * RUN_EVENTS
    if not work <= MAX_CLOCK_EVENTS:
        raise ValueError(
            f"{what}: {work:.3g} clock events of work, more than the budget "
            f"of {MAX_CLOCK_EVENTS:.0e}"
        )


def clock_blocks(seed, rate: float, t_end: float):
    """The events of a Poisson clock of constant ``rate`` over [0, t_end]
    in numpy blocks ``(times, uu)``: ascending times and their uniforms.

    ``seed`` is an int or a sequence of ints, e.g. ``(base_seed, run)``
    for an independent substream.  Randomness is consumed in a fixed
    pattern, so runs are bit-identical for a given seed across platforms:
    blocks of min(65,536, e + 4 sqrt(e) + 16) events, e = rate * t_end,
    each drawn as its exponential gaps, then ``random((block, 3))``,
    until a block passes ``t_end``.  At rate 0 nothing is drawn.
    """
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
        yield times[:last], uu[:last]
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


def response_table(spec, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``(p_sp, p_ps)`` of ``spec`` at every infected count k = 0..n of n
    agents: the floats `compile_response` returns at ``k * (1.0 / n)``.
    A caller charges `TABLE_EVENTS` a count to `check_work`."""
    resp, inv_n = compile_response(spec), 1.0 / n
    # Filled in place and made tuples one at a time, so no (p_sp, p_ps)
    # pair outlives its count and at most one list is copied at once.
    p_sp, p_ps = [0.0] * (n + 1), [0.0] * (n + 1)
    for k in range(n + 1):
        p_sp[k], p_ps[k] = resp(k * inv_n)
    p_sp = tuple(p_sp)
    return p_sp, tuple(p_ps)


def held_states(initial, jumps, logs, grid) -> tuple[np.ndarray, np.ndarray]:
    """The integer state on ``grid`` (sorted ascending) in run-length form
    ``(states, held)``: ``states[r]`` holds for the next ``held[r]`` grid
    rows, so ``np.repeat(states, held, axis=0)`` is the state at every grid
    time, as `counts_on_grid` returns it.

    The state starts at ``initial`` (length m); ``logs[k]`` holds the
    ascending times of the jumps that add row k of the (n_codes, m) jump
    table ``jumps``.  The state at grid time ``g`` includes every jump with
    time <= ``g``; jumps after the last grid time are dropped.

    With no more jumps than grid points, ``states`` is ``initial`` and the
    state after each jump: a jump lands in cell r, the first grid row that
    includes it, the jumps are sorted by cell and summed up, and ``held``
    counts the rows up to the next jump's cell (0 for all but the last jump
    of a cell).  With more, ``states`` is the state at every grid time,
    each held once: the number of each log's jumps at or before every grid
    time (`np.searchsorted`) times the jump table, added to ``initial``.
    Either way the work is on the jumps or on the grid, whichever is
    smaller, and the memory O(min(jumps, len(grid)) * (n_codes + m)).
    """
    jumps = np.asarray(jumps, dtype=np.int64)
    initial = np.asarray(initial, dtype=np.int64)
    sizes = [len(log) for log in logs]
    if sum(sizes) > grid.size:
        seen = np.column_stack([np.searchsorted(log, grid, side="right") for log in logs])
        return initial + seen @ jumps, np.ones(grid.size, dtype=np.int64)
    where = np.concatenate([np.searchsorted(grid, log) for log in logs])
    order = np.argsort(where)
    states = np.empty((where.size + 1, initial.size), dtype=np.int64)
    states[0] = initial
    states[1:] = jumps[np.repeat(np.arange(len(sizes)), sizes)[order]]
    np.cumsum(states, axis=0, out=states)
    return states, np.diff(where[order], prepend=0, append=grid.size)


def counts_on_grid(initial, jumps, logs, grid) -> np.ndarray:
    """Integer state at every time of ``grid``: `held_states`, with each
    state repeated over the rows that hold it."""
    states, held = held_states(initial, jumps, logs, grid)
    return np.repeat(states, held, axis=0)
