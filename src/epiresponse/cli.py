"""Command-line front end.

One executable with subcommands covering the analyses: equilibrium
reports, trajectory integration, basin classification, the gamma sweep,
stochastic simulation, the mean-field convergence study, and contact-trace
replay.  Every command reads a ``key = value`` config file (see `config`)
and writes CSV (default) or JSON into the output directory.  All commands
are deterministic given the config and seed; reruns produce byte-identical
files.

Exit codes: 0 success; 2 configuration error (message names the offending
key); 3 runtime error (bad input data, integration failure, no root).
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
    NoRootError,
    equilibrium_infection_vs_gamma,
    find_equilibria,
    find_equilibria_continuous,
    stability_sliding,
    stability_smooth,
)
from .integrator import (
    DomainError,
    IntegratorConfig,
    LeftDomainError,
    StepUnderflowError,
    classify_basin,
    integrate,
)
from .model import (
    ClassSpec,
    ModelParams,
    SigmoidResponse,
    State,
    eval_response_selected,
)
from .traces import (
    EmptyTraceError,
    ParseError,
    TraceExperiment,
    parse_trace,
    run_trace_experiment,
)

__all__ = ["main"]


_MODEL_SCHEMA = {
    "beta": Field("rate", required=True),
    "gamma": Field("rate", required=True),
    "delta": Field("rate", required=True),
}


def _model_from(values) -> ModelParams:
    try:
        return ModelParams(
            beta=values["beta"], gamma=values["gamma"], delta=values["delta"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _state_from(values) -> State:
    try:
        return State(values["s0"], values["i0"])
    except ValueError as exc:
        raise ConfigError(f"initial state: {exc}") from None


def _resolve_seed(values, args) -> int:
    if args.seed is not None:
        return args.seed
    seed = values.get("seed")
    if seed is None:
        raise ConfigError("missing required key 'seed' (config key or --seed)")
    return seed


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    print(path)


def _write_table(out_dir: str, name: str, header, rows, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "columns": list(header),
            "rows": [list(row) for row in rows],
        }
        _write_text(
            os.path.join(out_dir, f"{name}.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        return
    lines = [",".join(header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in rows)
    _write_text(os.path.join(out_dir, f"{name}.csv"), "\n".join(lines) + "\n")


def _stability_entry(params, spec, eq):
    if eq.kind is EquilibriumKind.SLIDING:
        report = stability_sliding(params, spec.i_star)
        return {
            "verdict": report.verdict.value,
            "a_plus": report.a_plus,
            "a_minus": report.a_minus,
        }
    report = stability_smooth(params, spec, eq)
    return {
        "verdict": report.verdict.value,
        "eigenvalues": [[ev.real, ev.imag] for ev in report.eigenvalues],
    }


def cmd_equilibria(text, args) -> int:
    schema = dict(_MODEL_SCHEMA)
    schema.update(response_schema())
    values = parse_config(text, schema)
    params = _model_from(values)
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
        "params": {"beta": params.beta, "gamma": params.gamma, "delta": params.delta},
        "response": response_to_config(spec),
        "equilibria": entries,
    }
    for entry in entries:
        flags = [
            word
            for word, on in (("degenerate", entry["degenerate"]), ("boundary", entry["boundary"]))
            if on
        ]
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(
            f"{entry['kind']}: ({format_value(entry['s'])}, {format_value(entry['i'])})"
            f" {entry['stability']['verdict']}{suffix}"
        )
    _write_text(
        os.path.join(args.out, "equilibria.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    return 0


_TOL_SCHEMA = {
    "t_max": Field("time", default=1e4),
    "rel_tol": Field("float", default=1e-9),
    "abs_tol": Field("float", default=1e-11),
    "event_tol": Field("float", default=1e-10),
    "equilibrium_eps": Field("float", default=1e-7),
    "capture_spiral": Field("bool", default=True),
}


def _integrator_config(values, **overrides) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            rel_tol=values["rel_tol"],
            abs_tol=values["abs_tol"],
            t_max=values["t_max"],
            event_tol=values["event_tol"],
            equilibrium_eps=values["equilibrium_eps"],
            capture_spiral=values["capture_spiral"],
            **overrides,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_integrate(text, args) -> int:
    schema = dict(_MODEL_SCHEMA)
    schema.update(response_schema())
    schema.update(_TOL_SCHEMA)
    schema.update(
        {
            "s0": Field("float", required=True),
            "i0": Field("float", required=True),
            "field_grid_n": Field("int", default=21),
        }
    )
    values = parse_config(text, schema)
    params = _model_from(values)
    spec = build_response(values)
    x0 = _state_from(values)
    cfg = _integrator_config(values)
    traj = integrate(params, spec, x0, cfg)
    rows = [(t, s, i, 1.0 - s - i) for t, (s, i) in zip(traj.times, traj.states)]
    _write_table(args.out, "trajectory", ("t", "s", "i", "p"), rows, args.format)
    event_rows = [(t, kind.value) for t, kind in traj.events]
    _write_table(args.out, "events", ("t", "event"), event_rows, args.format)
    if args.vector_field:
        grid_n = values["field_grid_n"]
        if grid_n < 2:
            raise ConfigError("key 'field_grid_n': must be at least 2")
        beta, gamma, delta = params.beta, params.gamma, params.delta
        axis = np.linspace(0.0, 1.0, grid_n)
        field_rows = []
        for s in axis:
            for i in axis:
                if s + i > 1.0 + 1e-12:
                    continue
                p_sp, p_ps = eval_response_selected(spec, float(i))
                ds = -beta * s * i - gamma * s * p_sp + gamma * (1.0 - s - i) * p_ps
                di = (beta * s - delta) * i
                field_rows.append((float(s), float(i), ds, di))
        _write_table(
            args.out, "field", ("s", "i", "ds", "di"), field_rows, args.format
        )
    print(f"terminated: {traj.reason.value} at t = {format_value(traj.final_time)}")
    return 0


def cmd_basin(text, args) -> int:
    schema = dict(_MODEL_SCHEMA)
    schema.update(response_schema())
    schema.update(_TOL_SCHEMA)
    schema.update({"grid_n": Field("int", default=20)})
    values = parse_config(text, schema)
    params = _model_from(values)
    spec = build_response(values)
    grid_n = values["grid_n"]
    if grid_n < 2:
        raise ConfigError("key 'grid_n': must be at least 2")
    cfg = _integrator_config(values, store_dense=False, store_samples=False)
    axis = np.linspace(0.0, 1.0, grid_n)
    starts = [
        State(float(s), float(i))
        for s in axis
        for i in axis
        if s + i <= 1.0 + 1e-12
    ]
    labels = classify_basin(params, spec, starts, cfg)
    rows = [
        (x0.s, x0.i, labels[x0].value if labels[x0] is not None else "unresolved")
        for x0 in starts
    ]
    _write_table(args.out, "basin", ("s0", "i0", "label"), rows, args.format)
    return 0


def cmd_sweep_gamma(text, args) -> int:
    schema = {
        "beta": Field("rate", required=True),
        "delta": Field("rate", required=True),
        "kind": Field("choice", default="step", choices=("step", "sigmoid")),
        "i_star": Field("float", required=True),
        "epsilon": Field("float"),
        "gamma_min": Field("rate", required=True),
        "gamma_max": Field("rate", required=True),
        "gamma_count": Field("int", default=50),
        "log_spacing": Field("bool", default=True),
    }
    values = parse_config(text, schema)
    if values["gamma_count"] < 2:
        raise ConfigError("key 'gamma_count': must be at least 2")
    lo, hi = values["gamma_min"], values["gamma_max"]
    if not (0.0 < lo < hi):
        raise ConfigError("key 'gamma_min': need 0 < gamma_min < gamma_max")
    if values["log_spacing"]:
        grid = np.logspace(math.log10(lo), math.log10(hi), values["gamma_count"])
    else:
        grid = np.linspace(lo, hi, values["gamma_count"])
    if values["kind"] == "step":
        if values["epsilon"] is not None:
            raise ConfigError("key 'epsilon' does not apply to kind 'step'")
        try:
            rows = [
                (row.gamma, row.i_eq, row.kind.value)
                for row in equilibrium_infection_vs_gamma(
                    values["beta"], values["delta"], values["i_star"], grid
                )
            ]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        if values["epsilon"] is None:
            raise ConfigError("missing required key 'epsilon' for kind 'sigmoid'")
        try:
            spec = SigmoidResponse(i_star=values["i_star"], epsilon=values["epsilon"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        rows = []
        for gamma in grid:
            params = ModelParams(
                beta=values["beta"], gamma=float(gamma), delta=values["delta"]
            )
            eqs = find_equilibria_continuous(params, spec)
            endemic = [e for e in eqs if e.kind is EquilibriumKind.ENDEMIC]
            if endemic:
                rows.append((float(gamma), endemic[0].point.i, "endemic"))
            else:
                rows.append((float(gamma), 0.0, "disease_free"))
    _write_table(args.out, "sweep", ("gamma", "i_eq", "kind"), rows, args.format)
    return 0


def cmd_simulate(text, args) -> int:
    schema = dict(_MODEL_SCHEMA)
    schema.update(response_schema())
    schema.update(
        {
            "n": Field("int", required=True),
            "s0": Field("float", required=True),
            "i0": Field("float", required=True),
            "t_max": Field("time", default=50.0),
            "sample_dt": Field("time", default=0.1),
            "seed": Field("int"),
        }
    )
    values = parse_config(text, schema)
    params = _model_from(values)
    spec = build_response(values)
    seed = _resolve_seed(values, args)
    try:
        pop0 = AgentPopulation.from_fractions(values["n"], values["s0"], values["i0"])
        run = simulate_ctmc(
            params, spec, pop0, values["t_max"], seed, sample_dt=values["sample_dt"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [
        (t, int(ns), int(ni), int(np_), seed)
        for t, (ns, ni, np_) in zip(run.times, run.counts)
    ]
    _write_table(
        args.out, "run", ("t", "n_s", "n_i", "n_p", "seed"), rows, args.format
    )
    return 0


def cmd_converge(text, args) -> int:
    schema = dict(_MODEL_SCHEMA)
    schema.update(response_schema())
    schema.update(
        {
            "n_list": Field("int_list", required=True),
            "runs_per_n": Field("int", default=20),
            "s0": Field("float", required=True),
            "i0": Field("float", required=True),
            "t_max": Field("time", default=50.0),
            "sample_dt": Field("time", default=0.1),
            "seed": Field("int"),
        }
    )
    values = parse_config(text, schema)
    params = _model_from(values)
    spec = build_response(values)
    x0 = _state_from(values)
    seed = _resolve_seed(values, args)
    try:
        table = convergence_study(
            params,
            spec,
            x0,
            values["n_list"],
            runs_per_n=values["runs_per_n"],
            t_max=values["t_max"],
            seed=seed,
            sample_dt=values["sample_dt"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [(row.n, row.mean_error, row.std_error, row.runs) for row in table]
    _write_table(
        args.out,
        "convergence",
        ("n", "mean_error", "std_error", "runs"),
        rows,
        args.format,
    )
    return 0


def cmd_trace(text, args) -> int:
    schema = {
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
    }
    values = parse_config(text, schema)
    seed = _resolve_seed(values, args)
    with open(args.trace) as handle:
        trace = parse_trace(handle)

    try:
        two_class = values["i_star2"] is not None
        if two_class:
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
        unknown = [n for n in (*infected, *protected) if n not in trace.node_ids]
        if unknown:
            raise ConfigError(
                f"key 'infected_nodes': unknown node ids {sorted(set(unknown))}"
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
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    result = run_trace_experiment(trace, exp, seed)
    header = ["t", "s_total", "i_total"]
    for c in range(len(classes)):
        header.extend((f"s_c{c + 1}", f"i_c{c + 1}"))
    rows = []
    for k, t in enumerate(result.times):
        row = [float(t)]
        row.extend(
            (result.mean_fractions[k, 0, 0], result.mean_fractions[k, 0, 1])
        )
        for c in range(len(classes)):
            row.extend(
                (
                    result.mean_fractions[k, 1 + c, 0],
                    result.mean_fractions[k, 1 + c, 1],
                )
            )
        rows.append(tuple(row))
    _write_table(args.out, "trace_avg", tuple(header), rows, args.format)
    return 0


_COMMANDS = {
    "equilibria": cmd_equilibria,
    "integrate": cmd_integrate,
    "basin": cmd_basin,
    "sweep-gamma": cmd_sweep_gamma,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "trace": cmd_trace,
}


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
    try:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](text, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        ParseError,
        EmptyTraceError,
        NoRootError,
        NoDecisionPressure,
        HypothesisViolated,
        StepUnderflowError,
        LeftDomainError,
        DomainError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
