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

Each class response is compiled once by `model.compile_response`, the
scalar kernel shared with the jump process and the integrator.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ClassSpec, compile_response

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
        recs = sorted(
            (Contact(*c) for c in contacts),
            key=lambda c: (c.t_start, c.t_end, c.a, c.b),
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
    # Hold the nominal span even if the last contact lands earlier.
    recs = sorted(contacts, key=lambda c: (c.t_start, c.t_end, c.a, c.b))
    nodes = sorted({c.a for c in recs} | {c.b for c in recs})
    if len(nodes) != n_nodes:
        # Isolated nodes would drop out of node_ids; anchor them with a
        # zero-length contact at the span end... they cannot occur here
        # because every pair draws at least one attempt, but a very low
        # rate can leave a node with no realized contact.
        raise EmptyTraceError("some nodes have no contacts; increase pair_rate")
    return ContactTrace(
        node_ids=tuple(nodes), contacts=tuple(recs), duration=duration
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
        if int(self.runs) != self.runs or self.runs < 1:
            raise ValueError("runs must be a positive integer")
        if self.transient_cut is not None and self.transient_cut < 0.0:
            raise ValueError("transient_cut must be non-negative")
        if self.grid_dt <= 0.0:
            raise ValueError("grid_dt must be positive")
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
    grid, shape (runs, 1 + n_classes, 3).  ``final_states`` gives each
    run's terminal agent states (0=S, 1=I, 2=P) in ``node_ids`` order.
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


def run_trace_experiment(trace: ContactTrace, exp: TraceExperiment, seed) -> TraceResult:
    """Monte-Carlo replay of ``trace`` under ``exp``; run k draws its
    randomness from the substream (seed, k)."""
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
        class_of = [int(exp.class_assignment[nid]) for nid in nodes]
        if any(c < 0 or c >= n_classes for c in class_of):
            raise ValueError("class indices out of range")
    class_sizes = [class_of.count(c) for c in range(n_classes)]
    if any(sz == 0 for sz in class_sizes):
        raise ValueError("every class needs at least one member")

    resp_fns = [compile_response(c.response) for c in exp.classes]
    span = trace.duration
    grid_dt = exp.grid_dt
    k_max = int(math.floor(span / grid_dt + 1e-9))
    cut = 0.1 * span if exp.transient_cut is None else exp.transient_cut
    cut_idx = 0
    while cut_idx <= k_max and cut_idx * grid_dt < cut:
        cut_idx += 1
    if cut_idx > k_max:
        raise ValueError("transient_cut leaves no samples")

    c_start = [c.t_start for c in trace.contacts]
    c_a = [index[c.a] for c in trace.contacts]
    c_b = [index[c.b] for c in trace.contacts]
    n_contacts = len(c_start)

    gamma, delta = exp.gamma, exp.delta
    clock_rate = n * (gamma + delta)
    p_update = gamma / (gamma + delta) if gamma + delta > 0.0 else 0.0
    inv_n = 1.0 / n

    grid_sum = np.zeros((k_max + 1, 1 + n_classes, 3))
    per_run_avg = np.empty((exp.runs, 1 + n_classes, 3))
    final_states = np.empty((exp.runs, n), dtype=np.int8)

    for run in range(exp.runs):
        rng = np.random.default_rng((seed, run))
        # Pre-generate the clock-event stream over the span.
        if clock_rate > 0.0:
            times: list[float] = []
            t_acc = 0.0
            while t_acc <= span:
                gaps = rng.exponential(1.0 / clock_rate, 4096)
                cum = t_acc + np.cumsum(gaps)
                t_acc = float(cum[-1])
                times.extend(cum.tolist())
            while times and times[-1] > span:
                times.pop()
            uu = rng.random((len(times), 3))
            u_type = uu[:, 0].tolist()
            u_agent = uu[:, 1].tolist()
            u_act = uu[:, 2].tolist()
            clock_times = times
        else:
            clock_times = []
            u_type = u_agent = u_act = []
        n_clocks = len(clock_times)

        st = list(init_state)
        counts = [[0, 0, 0] for _ in range(n_classes)]
        for j, sj in enumerate(st):
            counts[class_of[j]][sj] += 1
        agg = [0, 0, 0]
        for c in range(n_classes):
            for k in range(3):
                agg[k] += counts[c][k]

        rows: list[tuple] = []
        next_k = 0
        next_t = 0.0

        def current_row():
            vals = [agg[0] * inv_n, agg[1] * inv_n, agg[2] * inv_n]
            for c in range(n_classes):
                sz = class_sizes[c]
                vals.extend(
                    (counts[c][0] / sz, counts[c][1] / sz, counts[c][2] / sz)
                )
            return tuple(vals)

        def flush(t_event):
            nonlocal next_k, next_t
            if next_k > k_max or next_t >= t_event:
                return
            row = current_row()
            while next_k <= k_max and next_t < t_event:
                rows.append(row)
                next_k += 1
                next_t = next_k * grid_dt

        ci = cj = 0
        while ci < n_contacts or cj < n_clocks:
            tc = c_start[ci] if ci < n_contacts else math.inf
            tk = clock_times[cj] if cj < n_clocks else math.inf
            if tc <= tk:
                flush(tc)
                ja, jb = c_a[ci], c_b[ci]
                sa, sb = st[ja], st[jb]
                if sa == _S and sb == _I:
                    st[ja] = _I
                    counts[class_of[ja]][_S] -= 1
                    counts[class_of[ja]][_I] += 1
                    agg[_S] -= 1
                    agg[_I] += 1
                elif sa == _I and sb == _S:
                    st[jb] = _I
                    counts[class_of[jb]][_S] -= 1
                    counts[class_of[jb]][_I] += 1
                    agg[_S] -= 1
                    agg[_I] += 1
                ci += 1
            else:
                flush(tk)
                j = int(u_agent[cj] * n)
                sj = st[j]
                if u_type[cj] < p_update:
                    if sj == _S:
                        p_sp = resp_fns[class_of[j]](agg[_I] * inv_n)[0]
                        if u_act[cj] < p_sp:
                            st[j] = _P
                            counts[class_of[j]][_S] -= 1
                            counts[class_of[j]][_P] += 1
                            agg[_S] -= 1
                            agg[_P] += 1
                    elif sj == _P:
                        p_ps = resp_fns[class_of[j]](agg[_I] * inv_n)[1]
                        if u_act[cj] < p_ps:
                            st[j] = _S
                            counts[class_of[j]][_P] -= 1
                            counts[class_of[j]][_S] += 1
                            agg[_P] -= 1
                            agg[_S] += 1
                elif sj == _I:
                    st[j] = _P
                    counts[class_of[j]][_I] -= 1
                    counts[class_of[j]][_P] += 1
                    agg[_I] -= 1
                    agg[_P] += 1
                cj += 1

        # Hold the last state to the end of the grid.
        row = current_row()
        while next_k <= k_max:
            rows.append(row)
            next_k += 1
            next_t = next_k * grid_dt

        samples = np.array(rows).reshape(k_max + 1, 1 + n_classes, 3)
        grid_sum += samples
        per_run_avg[run] = samples[cut_idx:].mean(axis=0)
        final_states[run] = st

    grid = np.arange(k_max + 1) * grid_dt
    return TraceResult(
        times=grid[cut_idx:],
        mean_fractions=grid_sum[cut_idx:] / exp.runs,
        per_run_avg=per_run_avg,
        final_states=final_states,
        node_ids=tuple(nodes),
        class_of=np.array(class_of),
        transient_cut=cut,
        runs=exp.runs,
    )
