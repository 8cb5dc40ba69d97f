"""Command-line front end.

One executable with subcommands covering the analyses: equilibrium
reports, trajectory integration, basin classification, the gamma sweep,
stochastic simulation, the mean-field convergence study, and contact-trace
replay.  Every command reads a ``key = value`` config file (see `config`)
and writes CSV (default) or JSON into the output directory.  All commands
are deterministic given the config and seed; reruns produce byte-identical
files.

Each command is a config schema and a function that makes its engine
call (`_COMMANDS`); `main` parses the config against the schema and maps
errors to exit codes in one place.  Exit codes: 0 success; 3 for the
runtime errors in `_RUNTIME_ERRORS` (bad input data, integration failure,
no root); 2 for any other `ValueError`, i.e. a config value rejected by
the schema or by a constructor (the message names the key or the value).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    Field,
    build_response,
    format_value,
    parse_config,
    response_schema,
    response_to_config,
)
from .ctmc import AgentPopulation, convergence_study, simulate_ctmc
from .equilibria import (
    EquilibriumKind,
    HypothesisViolated,
    NoDecisionPressure,
    equilibrium_infection_vs_gamma,
    find_equilibria,
    stability_sliding,
    stability_smooth,
)
from .integrator import (
    DomainError,
    IntegratorConfig,
    LeftDomainError,
    StepBudgetError,
    StepUnderflowError,
    classify_basin,
    integrate,
)
from .model import (
    ClassSpec,
    ModelParams,
    SigmoidResponse,
    State,
    compile_field,
)
from .sampling import MAX_GRID_POINTS
from .traces import (
    EmptyTraceError,
    ParseError,
    TraceExperiment,
    parse_trace,
    run_trace_experiment,
)

__all__ = ["main"]


# Shared schema blocks.  The `_TOL` keys are exactly the `IntegratorConfig`
# fields they set.
_MODEL = {
    "beta": Field("rate", required=True),
    "gamma": Field("rate", required=True),
    "delta": Field("rate", required=True),
}
_TOL = {
    "t_max": Field("time", default=1e4),
    "rel_tol": Field("float", default=1e-9),
    "abs_tol": Field("float", default=1e-11),
    "event_tol": Field("float", default=1e-10),
    "equilibrium_eps": Field("float", default=1e-7),
    "capture_spiral": Field("bool", default=True),
}
_START = {
    "s0": Field("float", required=True),
    "i0": Field("float", required=True),
}
_RUN = {
    "t_max": Field("time", default=50.0),
    "sample_dt": Field("time", default=0.1),
    "seed": Field("int"),
}


def _pick(values, block) -> dict:
    return {key: values[key] for key in block}


def _start(values) -> State:
    """The `_START` block as a point of the unit simplex."""
    try:
        return State(values["s0"], values["i0"])
    except ValueError:
        raise ConfigError(
            f"keys 's0', 'i0': ({values['s0']}, {values['i0']}) lies outside "
            "the unit simplex s0, i0 >= 0, s0 + i0 <= 1"
        ) from None


def _seed(values, args) -> int:
    """The --seed flag, else the config key; it must be present and >= 0."""
    seed = values["seed"] if args.seed is None else args.seed
    if seed is None:
        raise ConfigError("missing required key 'seed' (config key or --seed)")
    if seed < 0:
        raise ConfigError("key 'seed': must be a non-negative integer")
    return seed


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    print(path)


def _csv_column(cells) -> list[str]:
    """The CSV text of one column, as `format_value` writes its cells: a
    float column formats each distinct value once (``%.17g``), keyed by
    its bit pattern, so 0.0 and -0.0, nan and inf keep their own text;
    any other column is written with ``str``.  A column holds one type
    throughout, so its first cell decides."""
    if isinstance(cells, np.ndarray) or isinstance(cells[0], float):
        bits, where = np.unique(
            np.asarray(cells, dtype=np.float64).view(np.int64), return_inverse=True
        )
        text = np.array(
            ["%.17g" % value for value in bits.view(np.float64).tolist()], dtype=object
        )
        return text[where].tolist()
    return [str(cell) for cell in cells]


def _csv_text(header, rows) -> str:
    """``rows`` under ``header`` as CSV text, built column by column;
    ``rows`` is a sequence of tuples or a 2-D float array."""
    columns = rows.T if isinstance(rows, np.ndarray) else zip(*rows)
    lines = [",".join(header), *map(",".join, zip(*map(_csv_column, columns)))]
    return "\n".join(lines) + "\n"


def _write_table(out_dir: str, name: str, header, rows, fmt: str) -> None:
    """Write ``rows`` under ``header`` as ``name.csv`` or ``name.json``;
    ``rows`` is a sequence of tuples or a 2-D float array."""
    if fmt == "json":
        payload = {
            "columns": list(header),
            "rows": (
                rows.tolist()
                if isinstance(rows, np.ndarray)
                else [list(row) for row in rows]
            ),
        }
        _write_text(
            os.path.join(out_dir, f"{name}.json"),
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        )
        return
    _write_text(os.path.join(out_dir, f"{name}.csv"), _csv_text(header, rows))


def _grid_count(key: str, count: int, points: int) -> None:
    """Refuse by ``key`` a count below 2, or one whose grid holds more than
    `MAX_GRID_POINTS` points."""
    if count < 2:
        raise ConfigError(f"key '{key}': must be at least 2")
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            f"key '{key}': {count} makes a grid of {points:.3g} points, more "
            f"than the cap of {MAX_GRID_POINTS:.0e}"
        )


def _triangle(grid_n: int, key: str) -> list[tuple[float, float]]:
    """The points (s, i) with s + i <= 1 of the square grid of ``grid_n``
    evenly spaced values on [0, 1] each way, about grid_n**2 / 2 of them."""
    _grid_count(key, grid_n, grid_n * (grid_n + 1) // 2)
    axis = np.linspace(0.0, 1.0, grid_n).tolist()
    return [(s, i) for s in axis for i in axis if s + i <= 1.0 + 1e-12]


def _stability_entry(params, spec, eq):
    """The stability report of ``eq``; a quantity that overflowed is refused
    by the rate keys, since strict JSON has no inf or nan."""
    if eq.kind is EquilibriumKind.SLIDING:
        report = stability_sliding(params, eq.point.i)
        entry = {"a_plus": report.a_plus, "a_minus": report.a_minus}
    else:
        report = stability_smooth(params, spec, eq)
        entry = {"eigenvalues": [[ev.real, ev.imag] for ev in report.eigenvalues]}
    for name, value in entry.items():
        numbers = sum(value, []) if name == "eigenvalues" else [value]
        if any(x is not None and not math.isfinite(x) for x in numbers):
            raise ConfigError(
                f"keys 'beta', 'gamma', 'delta': the {eq.kind.value} point's "
                f"{name} = {value} is not finite"
            )
    entry["verdict"] = report.verdict.value
    return entry


def cmd_equilibria(values, args) -> int:
    params = ModelParams(**_pick(values, _MODEL))
    spec = build_response(values)
    entries = []
    for eq in find_equilibria(params, spec):
        entry = {
            "kind": eq.kind.value,
            "s": eq.point.s,
            "i": eq.point.i,
            "admissible": eq.admissible,
            "degenerate": eq.degenerate,
            "boundary": eq.boundary,
            "stability": _stability_entry(params, spec, eq),
        }
        if eq.aux is not None:
            entry["aux_p_ps"] = eq.aux
        entries.append(entry)
    report = {
        "params": _pick(values, _MODEL),
        "response": response_to_config(spec),
        "equilibria": entries,
    }
    for entry in entries:
        flags = [word for word in ("degenerate", "boundary") if entry[word]]
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(
            f"{entry['kind']}: ({format_value(entry['s'])}, {format_value(entry['i'])})"
            f" {entry['stability']['verdict']}{suffix}"
        )
    _write_text(
        os.path.join(args.out, "equilibria.json"),
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
    )
    return 0


def cmd_integrate(values, args) -> int:
    params = ModelParams(**_pick(values, _MODEL))
    spec = build_response(values)
    x0 = _start(values)
    if args.vector_field:
        points = _triangle(values["field_grid_n"], "field_grid_n")
    traj = integrate(params, spec, x0, IntegratorConfig(**_pick(values, _TOL)))
    rows = [(t, s, i, 1.0 - s - i) for t, (s, i) in zip(traj.times, traj.states)]
    _write_table(args.out, "trajectory", ("t", "s", "i", "p"), rows, args.format)
    event_rows = [(t, kind.value) for t, kind in traj.events]
    _write_table(args.out, "events", ("t", "event"), event_rows, args.format)
    if args.vector_field:
        rhs = compile_field(params, spec)
        field_rows = [(s, i, *rhs(s, i)) for s, i in points]
        _write_table(
            args.out, "field", ("s", "i", "ds", "di"), field_rows, args.format
        )
    print(f"terminated: {traj.reason.value} at t = {format_value(traj.final_time)}")
    return 0


def cmd_basin(values, args) -> int:
    params = ModelParams(**_pick(values, _MODEL))
    spec = build_response(values)
    starts = [State(s, i) for s, i in _triangle(values["grid_n"], "grid_n")]
    cfg = IntegratorConfig(**_pick(values, _TOL))
    labels = classify_basin(params, spec, starts, cfg)
    rows = [
        (x0.s, x0.i, labels[x0].value if labels[x0] is not None else "unresolved")
        for x0 in starts
    ]
    _write_table(args.out, "basin", ("s0", "i0", "label"), rows, args.format)
    return 0


def cmd_sweep_gamma(values, args) -> int:
    count = values["gamma_count"]
    _grid_count("gamma_count", count, count)
    lo, hi = values["gamma_min"], values["gamma_max"]
    if not (0.0 < lo < hi):
        raise ConfigError("key 'gamma_min': need 0 < gamma_min < gamma_max")
    if values["log_spacing"]:
        with np.errstate(over="ignore"):
            grid = np.logspace(math.log10(lo), math.log10(hi), count)
        if not np.isfinite(grid).all():
            raise ConfigError(f"key 'gamma_max': {hi!r} overflows to inf on a log grid")
    else:
        grid = np.linspace(lo, hi, count)
    sweep = equilibrium_infection_vs_gamma(
        values["beta"], values["delta"], build_response(values), grid.tolist()
    )
    rows = [(row.gamma, row.i_eq, row.kind.value) for row in sweep]
    _write_table(args.out, "sweep", ("gamma", "i_eq", "kind"), rows, args.format)
    return 0


def cmd_simulate(values, args) -> int:
    params = ModelParams(**_pick(values, _MODEL))
    spec = build_response(values)
    seed = _seed(values, args)
    x0 = _start(values)
    pop0 = AgentPopulation.from_fractions(values["n"], x0.s, x0.i)
    run = simulate_ctmc(
        params, spec, pop0, values["t_max"], seed, sample_dt=values["sample_dt"]
    )
    rows = [
        (t, int(ns), int(ni), int(np_), seed)
        for t, (ns, ni, np_) in zip(run.times, run.counts)
    ]
    _write_table(
        args.out, "run", ("t", "n_s", "n_i", "n_p", "seed"), rows, args.format
    )
    return 0


def cmd_converge(values, args) -> int:
    params = ModelParams(**_pick(values, _MODEL))
    spec = build_response(values)
    table = convergence_study(
        params,
        spec,
        _start(values),
        values["n_list"],
        runs_per_n=values["runs_per_n"],
        t_max=values["t_max"],
        seed=_seed(values, args),
        sample_dt=values["sample_dt"],
    )
    rows = [(row.n, row.mean_error, row.std_error, row.runs) for row in table]
    _write_table(
        args.out,
        "convergence",
        ("n", "mean_error", "std_error", "runs"),
        rows,
        args.format,
    )
    return 0


def cmd_trace(values, args) -> int:
    seed = _seed(values, args)
    with open(args.trace) as handle:
        trace = parse_trace(handle)

    if values["i_star2"] is not None:
        if values["epsilon2"] is None:
            raise ConfigError("missing required key 'epsilon2' for two classes")
        if values["split"] is None:
            raise ConfigError("missing required key 'split' for two classes")
        split = values["split"]
        if not (0.0 < split < 1.0):
            raise ConfigError("key 'split': must lie strictly between 0 and 1")
        classes = (
            ClassSpec(split, SigmoidResponse(values["i_star"], values["epsilon"])),
            ClassSpec(
                1.0 - split,
                SigmoidResponse(values["i_star2"], values["epsilon2"]),
            ),
        )
        n1 = round(split * trace.n_nodes)
        n1 = min(max(n1, 1), trace.n_nodes - 1)
        assignment = {
            nid: (0 if k < n1 else 1) for k, nid in enumerate(trace.node_ids)
        }
    else:
        for key in ("epsilon2", "split"):
            if values[key] is not None:
                raise ConfigError(f"key '{key}' requires 'i_star2'")
        classes = (
            ClassSpec(1.0, SigmoidResponse(values["i_star"], values["epsilon"])),
        )
        assignment = None

    infected = values["infected_nodes"] or (trace.node_ids[0],)
    protected = values["protected_nodes"] or ()
    for key, nodes in (("infected_nodes", infected), ("protected_nodes", protected)):
        unknown = sorted(set(nodes) - set(trace.node_ids))
        if unknown:
            raise ConfigError(f"key '{key}': unknown node ids {unknown}")
    both = sorted(set(infected) & set(protected))
    if both:
        why = "named in 'infected_nodes'" if values["infected_nodes"] else (
            "the trace's first node, infected when 'infected_nodes' is not set"
        )
        raise ConfigError(
            f"key 'protected_nodes': node ids {both} are also infected ({why})"
        )
    initial = {nid: "S" for nid in trace.node_ids}
    for nid in protected:
        initial[nid] = "P"
    for nid in infected:
        initial[nid] = "I"

    exp = TraceExperiment(
        gamma=values["gamma"],
        delta=values["delta"],
        classes=classes,
        initial=initial,
        class_assignment=assignment,
        runs=values["runs"],
        transient_cut=values["transient_cut"],
        grid_dt=values["grid_dt"],
    )
    result = run_trace_experiment(trace, exp, seed)
    header = ["t", "s_total", "i_total"]
    for c in range(len(classes)):
        header.extend((f"s_c{c + 1}", f"i_c{c + 1}"))
    # t, then (s, i) of the aggregate and of each class
    cells = result.mean_fractions[:, :, :2].reshape(len(result.times), -1)
    rows = np.column_stack([result.times, cells])
    _write_table(args.out, "trace_avg", tuple(header), rows, args.format)
    return 0


_RESPONSE = response_schema()

# name -> (config schema, command); a schema's key order is the order in
# which missing or malformed keys are reported.
_COMMANDS = {
    "equilibria": ({**_MODEL, **_RESPONSE}, cmd_equilibria),
    "integrate": (
        {
            **_MODEL,
            **_RESPONSE,
            **_TOL,
            **_START,
            "field_grid_n": Field("int", default=21),
        },
        cmd_integrate,
    ),
    "basin": (
        {**_MODEL, **_RESPONSE, **_TOL, "grid_n": Field("int", default=20)},
        cmd_basin,
    ),
    "sweep-gamma": (
        {
            "beta": Field("rate", required=True),
            "delta": Field("rate", required=True),
            **_RESPONSE,
            "gamma_min": Field("rate", required=True),
            "gamma_max": Field("rate", required=True),
            "gamma_count": Field("int", default=50),
            "log_spacing": Field("bool", default=True),
        },
        cmd_sweep_gamma,
    ),
    "simulate": (
        {**_MODEL, **_RESPONSE, "n": Field("int", required=True), **_START, **_RUN},
        cmd_simulate,
    ),
    "converge": (
        {
            **_MODEL,
            **_RESPONSE,
            "n_list": Field("int_list", required=True),
            "runs_per_n": Field("int", default=20),
            **_START,
            **_RUN,
        },
        cmd_converge,
    ),
    "trace": (
        {
            "gamma": Field("rate", required=True),
            "delta": Field("rate", required=True),
            "i_star": Field("float", required=True),
            "epsilon": Field("float", required=True),
            "i_star2": Field("float"),
            "epsilon2": Field("float"),
            "split": Field("float"),
            "runs": Field("int", default=30),
            "transient_cut": Field("time"),
            "grid_dt": Field("time", default=60.0),
            "infected_nodes": Field("int_list"),
            "protected_nodes": Field("int_list"),
            "seed": Field("int"),
        },
        cmd_trace,
    ),
}

# Runtime failures of valid input: exit 3.  Any other ValueError is a
# config value the schema parsed but a constructor rejected: exit 2.
_RUNTIME_ERRORS = (
    ParseError,
    EmptyTraceError,
    NoDecisionPressure,
    HypothesisViolated,
    StepBudgetError,
    StepUnderflowError,
    LeftDomainError,
    DomainError,
    OSError,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiresponse",
        description="Epidemic dynamics with self-interested protection switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="key = value config file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed")
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="csv", dest="format"
        )
        if name == "integrate":
            cmd.add_argument(
                "--vector-field",
                action="store_true",
                dest="vector_field",
                help="also write a grid of (s, i, ds, di) samples",
            )
        if name == "trace":
            cmd.add_argument("trace", help="contact trace CSV (a,b,t_start,t_end)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    schema, run = _COMMANDS[args.command]
    try:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        os.makedirs(args.out, exist_ok=True)
        return run(parse_config(text, schema), args)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
