"""Replay of contact traces under the protection-response dynamics.

A contact trace is a list of timestamped pairwise contacts (e.g. Bluetooth
sightings).  The engine replays the contacts as the meeting process:
infection fires at contact-start instants when the pair is {S, I} (contact
ends carry no state change).  Independently, every agent runs Poisson
clocks for state-report updates (rate gamma: apply the agent's class
response at the current aggregate infected fraction) and disinfection
(rate delta: I -> P).  The epidemic ends when no infected agents remain
(no further infection is possible); the protection-update process keeps
running to the end of the trace so that protected agents drain back to
susceptible at the zero-infection response, which keeps averages over
runs on a common grid meaningful.

Simultaneous events are ordered by timestamp with contacts taking
priority over clock events; clock times are continuous so clock/clock
ties do not occur.

A class response only ever reads the infected fraction k / n, so each is
tabulated once per experiment in the table the jump process reads too,
`sampling.response_table`.  A run reads its clock in the numpy blocks of
`sampling.clock_blocks`: per block, numpy turns the uniforms into agents
and event types and finds, for each event, how many contacts start at or
before it; the per-event loop then applies only the state-dependent
tests.  A run tracks only the agents' states and the infected count; it
logs each transition in time order, one log per class and move of
`sampling.MOVES`.  Once the run is over, `sampling.held_states` turns the
logs into the states the run held and the grid rows that hold each; the
run's fractions are taken on those states, repeated over the rows past
the transient cut into the experiment's sum, and time-averaged exactly
from their integer counts.
"""

import math
import numbers
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .model import ClassSpec
from .sampling import (
    MOVES,
    check_work,
    clock_blocks,
    held_states,
    response_table,
    uniform_grid,
)

__all__ = [
    "Contact",
    "ContactTrace",
    "ParseError",
    "EmptyTraceError",
    "TraceExperiment",
    "TraceResult",
    "parse_trace",
    "make_complete_mixing_trace",
    "run_trace_experiment",
]

_S, _I, _P = 0, 1, 2
_STATE_CODES = {"S": _S, "I": _I, "P": _P}


class Contact(NamedTuple):
    a: int
    b: int
    t_start: float
    t_end: float


class ParseError(ValueError):
    """A malformed trace row; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class EmptyTraceError(ValueError):
    """The input contained no contact records."""


@dataclass(frozen=True)
class ContactTrace:
    """Time-sorted pairwise contacts among a set of integer node ids."""

    node_ids: tuple[int, ...]
    contacts: tuple[Contact, ...]
    duration: float

    def __post_init__(self):
        if not self.contacts:
            raise EmptyTraceError("trace has no contacts")
        prev = -math.inf
        for c in self.contacts:
            if c.a == c.b:
                raise ValueError(f"self-contact on node {c.a}")
            if c.t_start < 0.0 or c.t_end < c.t_start:
                raise ValueError(f"bad contact interval {c}")
            if c.t_start < prev:
                raise ValueError("contacts not sorted by t_start")
            prev = c.t_start
        nodes = {c.a for c in self.contacts} | {c.b for c in self.contacts}
        if set(self.node_ids) != nodes:
            raise ValueError("node_ids do not match the contact records")

    @classmethod
    def from_contacts(cls, contacts) -> "ContactTrace":
        """Sort ``contacts`` (`Contact` records, or 4-tuples made into them)
        by (t_start, t_end, a, b) into a trace."""
        recs = sorted(
            (c if type(c) is Contact else Contact(*c) for c in contacts),
            key=itemgetter(2, 3, 0, 1),
        )
        if not recs:
            raise EmptyTraceError("trace has no contacts")
        nodes = sorted({c.a for c in recs} | {c.b for c in recs})
        span = max(c.t_end for c in recs)
        return cls(node_ids=tuple(nodes), contacts=tuple(recs), duration=span)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def parse_trace(source) -> ContactTrace:
    """Parse CSV rows ``a,b,t_start,t_end`` into a `ContactTrace`.

    ``source`` is a string or an iterable of lines.  Ids are integers,
    times non-negative seconds.  Lines starting with ``#`` and blank
    lines are skipped.  Rows may arrive unsorted; the result is sorted
    by start time.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    contacts = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(lineno, f"expected 4 fields, got {len(parts)}: {line!r}")
        try:
            a = int(parts[0])
            b = int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"node ids must be integers: {line!r}") from None
        try:
            t_start = float(parts[2])
            t_end = float(parts[3])
        except ValueError:
            raise ParseError(lineno, f"times must be numbers: {line!r}") from None
        if a == b:
            raise ParseError(lineno, f"self-contact on node {a}")
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise ParseError(lineno, "times must be finite")
        if t_start < 0.0:
            raise ParseError(lineno, f"negative start time {t_start}")
        if t_end < t_start:
            raise ParseError(lineno, f"contact ends before it starts: {line!r}")
        contacts.append(Contact(a, b, t_start, t_end))
    if not contacts:
        raise EmptyTraceError("trace has no contacts")
    return ContactTrace.from_contacts(contacts)


def make_complete_mixing_trace(
    n_nodes: int, pair_rate: float, duration: float, seed
) -> ContactTrace:
    """Synthetic homogeneous trace: every unordered pair meets at the
    times of an independent Poisson process with rate ``pair_rate``
    (exponential inter-contact times), instantaneously.

    Each agent then meets others at aggregate rate pair_rate*(n-1), so
    the mean-field infection term matches the well-mixed model with
    beta = pair_rate*(n-1).
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if pair_rate <= 0.0 or duration <= 0.0:
        raise ValueError("pair_rate and duration must be positive")
    rng = np.random.default_rng(seed)
    scale = 1.0 / pair_rate
    contacts = []
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            t = rng.exponential(scale)
            while t <= duration:
                contacts.append(Contact(a, b, t, t))
                t += rng.exponential(scale)
    if not contacts:
        raise EmptyTraceError(
            "no contacts generated; increase pair_rate or duration"
        )
    # A trace knows its nodes only through their contacts: a node whose
    # pairs all drew their first contact after the span would silently
    # leave the population, so refuse the draw instead.
    if len({c.a for c in contacts} | {c.b for c in contacts}) != n_nodes:
        raise EmptyTraceError("some nodes have no contacts; increase pair_rate")
    # Hold the nominal span even if the last contact lands earlier.
    return replace(ContactTrace.from_contacts(contacts), duration=duration)


def _is_whole(x) -> bool:
    """``x`` is a number with an integer value, such as 2 or 2.0."""
    return isinstance(x, numbers.Integral) or (
        isinstance(x, numbers.Real) and float(x).is_integer()
    )


@dataclass(frozen=True)
class TraceExperiment:
    """Protocol for replaying a trace: rates are per second, ``initial``
    maps every node id to "S"/"I"/"P", ``class_assignment`` maps node ids
    to indices into ``classes`` (defaults to class 0 for everyone).

    ``transient_cut`` (seconds) drops the initial part of the sample grid
    from averages; None means 10% of the trace span.  The sample grid has
    ``grid_dt`` resolution (default one minute).
    """

    gamma: float
    delta: float
    classes: tuple[ClassSpec, ...]
    initial: dict
    class_assignment: dict | None = None
    runs: int = 30
    transient_cut: float | None = None
    grid_dt: float = 60.0

    def __post_init__(self):
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and non-negative")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be finite and non-negative")
        if not self.classes:
            raise ValueError("at least one class is required")
        if not (_is_whole(self.runs) and self.runs >= 1):
            raise ValueError("runs must be a positive integer")
        object.__setattr__(self, "runs", int(self.runs))
        if self.transient_cut is not None and not self.transient_cut >= 0.0:
            raise ValueError("transient_cut must be non-negative")
        if not (self.grid_dt > 0.0 and math.isfinite(self.grid_dt)):
            raise ValueError("grid_dt must be positive and finite")
        bad = {v for v in self.initial.values()} - set(_STATE_CODES)
        if bad:
            raise ValueError(f"initial states must be S/I/P, got {sorted(bad)}")


@dataclass
class TraceResult:
    """Averaged trajectories and per-run summaries of a trace experiment.

    ``times`` is the post-transient sample grid; ``mean_fractions`` has
    shape (len(times), 1 + n_classes, 3): the run-averaged (S, I, P)
    fractions, aggregate first, then per class as fractions *of that
    class*.  ``per_run_avg`` holds each run's time-average over the same
    grid, shape (runs, 1 + n_classes, 3): the exact time-weighted mean,
    the run's integer counts summed over the grid and divided once.
    ``final_states`` gives each run's terminal agent states (0=S, 1=I,
    2=P) in ``node_ids`` order.
    """

    times: np.ndarray
    mean_fractions: np.ndarray
    per_run_avg: np.ndarray
    final_states: np.ndarray
    node_ids: tuple[int, ...]
    class_of: np.ndarray
    transient_cut: float
    runs: int

    def final_infected(self, run: int) -> frozenset:
        mask = self.final_states[run] == _I
        return frozenset(nid for nid, hit in zip(self.node_ids, mask) if hit)


def _class_moves(n_classes: int) -> np.ndarray:
    """The jump table of replay's logs, shape (4 * n_classes, 3 * (1 +
    n_classes)): an agent of class c logs move k of `sampling.MOVES`
    under code 4 * c + k, which moves one agent in the aggregate (S, I, P)
    columns and in those of its class."""
    jumps = np.zeros((4 * n_classes, 1 + n_classes, 3), dtype=np.int64)
    for c in range(n_classes):
        jumps[4 * c : 4 * c + 4, 0] = MOVES
        jumps[4 * c : 4 * c + 4, 1 + c] = MOVES
    return jumps.reshape(4 * n_classes, -1)


def run_trace_experiment(trace: ContactTrace, exp: TraceExperiment, seed) -> TraceResult:
    """Monte-Carlo replay of ``trace`` under ``exp``; run k draws its
    clock from `sampling.clock_blocks` with the substream (seed, k).  An
    experiment whose runs together cost more than
    `sampling.MAX_CLOCK_EVENTS` (`sampling.check_work`: clock events,
    contacts, grid points and a fixed cost per run), or a grid of more than
    `sampling.MAX_GRID_POINTS`, is refused before anything is drawn."""
    nodes = list(trace.node_ids)
    n = len(nodes)
    index = {nid: j for j, nid in enumerate(nodes)}

    missing = [nid for nid in nodes if nid not in exp.initial]
    if missing:
        raise ValueError(f"initial assignment missing nodes {missing}")
    unknown = [nid for nid in exp.initial if nid not in index]
    if unknown:
        raise ValueError(f"initial assignment names unknown nodes {unknown}")
    init_state = [_STATE_CODES[exp.initial[nid]] for nid in nodes]

    n_classes = len(exp.classes)
    if exp.class_assignment is None:
        if n_classes != 1:
            raise ValueError("class_assignment is required with multiple classes")
        class_of = [0] * n
    else:
        missing = [nid for nid in nodes if nid not in exp.class_assignment]
        if missing:
            raise ValueError(f"class assignment missing nodes {missing}")
        class_of = []
        for nid in nodes:
            c = exp.class_assignment[nid]
            if not _is_whole(c):
                raise ValueError(f"class index {c!r} of node {nid} is not an integer")
            if not 0 <= c < n_classes:
                raise ValueError(
                    f"class index {c!r} of node {nid} is out of range 0..{n_classes - 1}"
                )
            class_of.append(int(c))
    class_sizes = [class_of.count(c) for c in range(n_classes)]
    if any(sz == 0 for sz in class_sizes):
        raise ValueError("every class needs at least one member")

    span = trace.duration
    gamma, delta = exp.gamma, exp.delta
    clock_rate = n * (gamma + delta)
    n_contacts = len(trace.contacts)
    grid = uniform_grid(span, exp.grid_dt)
    check_work(
        f"runs = {exp.runs} replays of {n_contacts} contacts",
        exp.runs * (clock_rate * span + n_contacts + grid.size),
        exp.runs,
    )
    cut = 0.1 * span if exp.transient_cut is None else exp.transient_cut
    cut_idx = int(np.searchsorted(grid, cut))
    if cut_idx == grid.size:
        raise ValueError("transient_cut leaves no samples")

    contacts = [(c.t_start, index[c.a], index[c.b]) for c in trace.contacts]
    c_times = np.array([c.t_start for c in trace.contacts])

    p_update = gamma / (gamma + delta) if gamma + delta > 0.0 else 0.0

    # Agent j reads its class's response tables at the infected count.
    tables = [response_table(c.response, n) for c in exp.classes]
    p_sp_of = [tables[c][0] for c in class_of]
    p_ps_of = [tables[c][1] for c in class_of]

    # Agent j's transitions are logged under code 4 * class_of[j] + move.
    code_base = [4 * c for c in class_of]
    jumps = _class_moves(n_classes)
    initial = np.zeros((1 + n_classes, 3), dtype=np.int64)
    np.add.at(initial, (np.add(class_of, 1), init_state), 1)
    initial[0] = initial[1:].sum(axis=0)
    # a class's columns divide by its size, each of its three states
    sizes = np.repeat(class_sizes, 3)
    kept_rows = grid.size - cut_idx

    grid_sum = np.zeros((kept_rows, 3 * (1 + n_classes)))
    per_run_avg = np.empty((exp.runs, 3 * (1 + n_classes)))
    final_states = np.empty((exp.runs, n), dtype=np.int8)

    for run in range(exp.runs):
        st = list(init_state)
        n_inf = st.count(_I)
        logs = [array("d") for _ in jumps]

        # Per clock event: its time, agent int(u * n), whether it is an
        # update, its acceptance uniform, and the number of contacts at or
        # before it, which are replayed first (contacts win ties).  A last
        # event with no time drains the contacts left.
        events = chain.from_iterable(
            zip(
                times.tolist(),
                (uu[:, 1] * n).astype(np.intp).tolist(),
                (uu[:, 0] < p_update).tolist(),
                uu[:, 2].tolist(),
                np.searchsorted(c_times, times, side="right").tolist(),
            )
            for times, uu in clock_blocks((seed, run), clock_rate, span)
        )
        ci = 0
        for tk, j, update, u_act, c_stop in chain(events, [(None, 0, 0, 0, n_contacts)]):
            if ci < c_stop:
                for tc, a, b in contacts[ci:c_stop]:
                    # S = 0, I = 1, P = 2: only an {S, I} pair sums to 1
                    if st[a] + st[b] == 1:
                        s = b if st[a] else a
                        st[s] = _I
                        n_inf += 1
                        logs[code_base[s]].append(tc)
                ci = c_stop
            if tk is None:
                break
            sj = st[j]
            if update:
                if sj == _S:
                    if u_act < p_sp_of[j][n_inf]:
                        st[j] = _P
                        logs[code_base[j] + 1].append(tk)
                elif sj == _P:
                    if u_act < p_ps_of[j][n_inf]:
                        st[j] = _S
                        logs[code_base[j] + 2].append(tk)
            elif sj == _I:
                st[j] = _P
                n_inf -= 1
                logs[code_base[j] + 3].append(tk)

        # The fractions are taken on the states the run held, then repeated
        # over the rows at or after the cut that hold each; the time-average
        # sums the same rows' integer counts, exactly, and divides them once
        # after the last run.
        states, held = held_states(initial.ravel(), jumps, logs, grid)
        frac = np.empty(states.shape)
        frac[:, :3] = states[:, :3] * (1.0 / n)
        frac[:, 3:] = states[:, 3:] / sizes
        kept = np.clip(np.cumsum(held) - cut_idx, 0, held)
        grid_sum += np.repeat(frac, kept, axis=0)
        per_run_avg[run] = kept @ states
        final_states[run] = st

    per_run_avg /= kept_rows * np.concatenate(([n] * 3, sizes))

    return TraceResult(
        times=grid[cut_idx:],
        mean_fractions=(grid_sum / exp.runs).reshape(kept_rows, 1 + n_classes, 3),
        per_run_avg=per_run_avg.reshape(exp.runs, 1 + n_classes, 3),
        final_states=final_states,
        node_ids=tuple(nodes),
        class_of=np.array(class_of),
        transient_cut=cut,
        runs=exp.runs,
    )
