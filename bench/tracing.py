"""Spans and counters around the package's layer boundaries, from outside.

`installed` swaps wrappers into the module namespaces that make the calls
and puts the original functions back on exit, so untraced ops in the same
process run the program unchanged.  Spans stay in memory until the run
writes them out.  A span's self time is its duration minus the time of its
direct children; leaf functions called ~10^5 times an op (the response
evaluation) keep only a call count and a total time, which still counts as
child time of the enclosing span.
"""

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int, str], list] = {}  # (op, name) -> [calls, s]
        self.op = -1
        self._open: list[int] = []

    def span(self, name, fn, describe=None):
        """Wrap ``fn`` to record a span; ``describe(args, result)`` returns
        attributes computed from the call's arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.seconds
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tally = self.leaves.setdefault((self.op, name), [0, 0.0])
                tally[0] += 1
                tally[1] += dt
                if self._open:
                    self.spans[self._open[-1]].child_s += dt

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [
                {
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "child_s": s.child_s,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            "leaves": [
                {"op": op, "name": name, "calls": calls, "seconds": secs}
                for (op, name), (calls, secs) in self.leaves.items()
            ],
        }


def _replay_bases(args, result):
    trace, exp = args[0], args[1]
    span = trace.duration
    rate = len(trace.node_ids) * (exp.gamma + exp.delta)
    return {
        "grid_rows": exp.runs * (int(math.floor(span / exp.grid_dt + 1e-9)) + 1),
        "clock_events": exp.runs * rate * span,
        "contacts_replayed": exp.runs * len(trace.contacts),
    }


def _simulate_bases(args, result):
    params, pop0, t_max = args[0], args[2], args[3]
    total = params.beta + params.gamma + params.delta
    return {"clock_events": pop0.n * total * t_max, "grid_rows": len(result.times)}


def _trajectory_counts(args, result):
    kinds = [kind.value for _, kind in result.events]
    return {
        "crossings": kinds.count("CrossUp") + kinds.count("CrossDown"),
        "captures": kinds.count("HitSliding"),
        "unresolved": int(result.reason.value == "t_max"),
    }


def _plan(tracer, cli, integrator, equilibria):
    """(module, attribute, wrapper factory) for every traced call site."""
    return [
        (cli, "parse_config", lambda f: tracer.span("config.parse", f)),
        (cli, "parse_trace", lambda f: tracer.span(
            "traces.parse", f, lambda a, r: {"contacts": len(r.contacts)})),
        (cli, "run_trace_experiment", lambda f: tracer.span(
            "traces.replay", f, _replay_bases)),
        (cli, "simulate_ctmc", lambda f: tracer.span(
            "ctmc.simulate", f, _simulate_bases)),
        (cli, "classify_basin", lambda f: tracer.span("integrator.basin", f)),
        (integrator, "integrate", lambda f: tracer.span(
            "integrator.integrate", f, _trajectory_counts)),
        (integrator, "find_equilibria", lambda f: tracer.span("equilibria", f)),
        (integrator, "stability_sliding", lambda f: tracer.span("equilibria", f)),
        (integrator, "eval_response_selected", lambda f: tracer.leaf("model.response", f)),
        (equilibria, "eval_response_selected", lambda f: tracer.leaf("model.response", f)),
    ]


@contextmanager
def installed(tracer, cli, integrator, equilibria):
    """Wrap the traced call sites for the duration of the block."""
    originals = []
    try:
        for module, attr, wrap in _plan(tracer, cli, integrator, equilibria):
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


# Per-layer metrics: name -> unit.  Values are per traced op; the run
# reports their median over ops.  A layer that is not on a workload's path
# reads 0, and so does a ratio whose base is 0.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.cells_written": "count",
    "cli.us_per_cell": "us",  # cli.self_s / cells written
    "config.parse_s": "s",
    "traces.parse_s": "s",
    "traces.contacts": "count",
    "traces.replay_s": "s",
    "traces.grid_rows": "count",
    "traces.clock_events": "count",  # computed: runs * n * (gamma + delta) * span
    "traces.us_per_grid_row": "us",  # replay_s / grid_rows
    "traces.us_per_event": "us",  # replay_s / (clock_events + runs * contacts)
    "ctmc.simulate_s": "s",
    "ctmc.clock_events": "count",  # computed: n * (beta + gamma + delta) * t_max
    "ctmc.ns_per_clock_event": "ns",  # simulate_s / clock_events
    "ctmc.grid_rows": "count",
    "ctmc.ref_err": "frac",  # sup-norm distance to the mean-field flow
    "integrator.basin_s": "s",
    "integrator.integrate_calls": "count",
    "integrator.integrate_s": "s",
    "integrator.self_s": "s",  # integrate spans less equilibria and model children
    "integrator.crossings": "count",
    "integrator.captures": "count",
    "integrator.unresolved": "count",
    "integrator.us_per_crossing": "us",  # integrator.self_s / crossings
    "equilibria.calls": "count",
    "equilibria.s": "s",  # find_equilibria, stability_sliding called from integrator
    "model.response_calls": "count",
    "model.response_s": "s",  # eval_response_selected from integrator, equilibria
    "tracing.overhead_frac": "frac",  # traced / untraced op time - 1
}


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def op_layers(tracer: Tracer, op: int, cells: int, scale: float) -> dict:
    """Per-layer metrics of one traced op (all but the run-level ones);
    ``scale`` converts the op's wall seconds to reference seconds."""
    spans = [s for s in tracer.spans if s.op == op]

    def total(name, key=None):
        return sum(
            s.attrs[key] if key else s.seconds * scale for s in spans if s.name == name
        )

    main = scale * sum(s.self_s for s in spans if s.name == "cli.main")
    integrates = [s for s in spans if s.name == "integrator.integrate"]
    integrate_self = scale * sum(s.self_s for s in integrates)
    crossings = sum(s.attrs["crossings"] for s in integrates)
    replay_s = total("traces.replay")
    grid_rows = total("traces.replay", "grid_rows")
    replay_events = total("traces.replay", "clock_events") + total(
        "traces.replay", "contacts_replayed"
    )
    simulate_s = total("ctmc.simulate")
    clock_events = total("ctmc.simulate", "clock_events")
    calls, response_s = tracer.leaves.get((op, "model.response"), (0, 0.0))
    return {
        "cli.self_s": main,
        "cli.cells_written": cells,
        "cli.us_per_cell": _ratio(main, cells, 1e6),
        "config.parse_s": total("config.parse"),
        "traces.parse_s": total("traces.parse"),
        "traces.contacts": total("traces.parse", "contacts"),
        "traces.replay_s": replay_s,
        "traces.grid_rows": grid_rows,
        "traces.clock_events": total("traces.replay", "clock_events"),
        "traces.us_per_grid_row": _ratio(replay_s, grid_rows, 1e6),
        "traces.us_per_event": _ratio(replay_s, replay_events, 1e6),
        "ctmc.simulate_s": simulate_s,
        "ctmc.clock_events": clock_events,
        "ctmc.ns_per_clock_event": _ratio(simulate_s, clock_events, 1e9),
        "ctmc.grid_rows": total("ctmc.simulate", "grid_rows"),
        "integrator.basin_s": total("integrator.basin"),
        "integrator.integrate_calls": len(integrates),
        "integrator.integrate_s": scale * sum(s.seconds for s in integrates),
        "integrator.self_s": integrate_self,
        "integrator.crossings": crossings,
        "integrator.captures": sum(s.attrs["captures"] for s in integrates),
        "integrator.unresolved": sum(s.attrs["unresolved"] for s in integrates),
        "integrator.us_per_crossing": _ratio(integrate_self, crossings, 1e6),
        "equilibria.calls": sum(1 for s in spans if s.name == "equilibria"),
        "equilibria.s": total("equilibria"),
        "model.response_calls": calls,
        "model.response_s": scale * response_s,
    }
