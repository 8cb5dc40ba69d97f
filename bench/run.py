"""End-to-end benchmark of the epiresponse CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  One process drives the package the way a
researcher's script does: in-process calls to ``epiresponse.cli.main``,
one at a time (a closed loop with a single client and no extra threads),
on config files and contact CSVs generated from ``--seed``.  Warm-up ops
are not timed.  Every op's output is checked against an oracle that does
not use the package (see `workloads`), and its SHA-256 goes into the run
report ``.bench_run/<workload>-seed<N>-trace<T>/report.json``.

Times are in reference seconds (see `clock`); the run report keeps the
raw wall times as well.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and prints the per-layer
metrics from spans recorded around the layer boundaries (see `tracing`).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own child process, one after another.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from clock import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
WARMUP_OPS = 1
E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# Run in a fresh interpreter: the time to import epiresponse.cli, which
# every CLI process pays (numpy included), in reference seconds.
SETUP_PROBE = (
    "import importlib, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
    " from clock import measure;"
    " print(measure(importlib.import_module, 'epiresponse.cli')[1])"
)


def setup_seconds() -> float:
    """Median import time over fresh interpreters; one untimed probe
    first, so compiled bytecode exists."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC)]
    probes = [
        float(subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout)
        for _ in range(SETUP_PROBES + 1)
    ]
    return statistics.median(probes[1:])


def call(main, argv) -> int:
    """One CLI call with its prints captured; returns the exit code.  A
    traceback counts as a failed op, not as the end of the run."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


def check(op, code: int, problems: list) -> dict:
    """Oracle verdict and digest of one op's output; ``problems`` are
    those the run itself found."""
    entry = {"argv": op.argv, "params": op.params, "exit": code, "sha256": None, "cells": 0}
    if code != 0 or not op.table.is_file():
        problems = problems + [f"exit code {code}"]
    else:
        data = op.table.read_bytes()
        lines = data.decode().splitlines() or [""]
        entry.update(
            sha256=hashlib.sha256(data).hexdigest(),
            cells=(len(lines) - 1) * len(lines[0].split(",")),
        )
        try:
            found, measures = op.check(op.table)
        except (ValueError, IndexError) as exc:
            found, measures = [f"unreadable output: {exc}"], {}
        problems = problems + found
        entry.update(measures)
    entry.update(ok=not problems, problems=problems[:5])
    return entry


def time_ops(ops, seconds: float, trace: bool, tracer) -> list:
    """Run ops until ``seconds`` have passed and at least two are timed,
    after `WARMUP_OPS` untimed ones.  With ``trace``, each op runs
    untraced and traced back to back, alternating which goes first.
    Returns (op, exit code, timings, problems, timed) per op."""
    import epiresponse.cli as cli
    import epiresponse.equilibria as equilibria
    import epiresponse.integrator as integrator

    traced_main = tracer.span("cli.main", cli.main)
    done = []
    for _ in range(WARMUP_OPS):
        op = next(ops)
        done.append((op, call(cli.main, op.argv), {}, [], False))
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(done) < WARMUP_OPS + 2:
        op = next(ops)
        if not trace:
            code, ref_s, wall_s = measure(call, cli.main, op.argv)
            done.append((op, code, {"seconds": ref_s, "wall_s": wall_s}, [], True))
            continue
        tracer.op = len(done)
        codes, outputs, timings = [], [], {}
        for traced in (False, True) if len(done) % 2 else (True, False):
            wrappers = (
                tracing.installed(tracer, cli, integrator, equilibria)
                if traced
                else contextlib.nullcontext()
            )
            with wrappers:
                code, ref_s, wall_s = measure(
                    call, traced_main if traced else cli.main, op.argv
                )
            prefix = "traced_" if traced else ""
            timings.update({f"{prefix}seconds": ref_s, f"{prefix}wall_s": wall_s})
            codes.append(code)
            outputs.append(op.table.read_bytes() if op.table.is_file() else None)
        problems = [] if outputs[0] == outputs[1] else ["traced output differs"]
        done.append((op, max(codes, key=abs), timings, problems, True))
    return done


def layer_metrics(tracer, timed: list) -> dict:
    """Medians over traced ops of the per-layer metrics."""
    layers = [
        tracing.op_layers(tracer, e["op"], e["cells"], e["traced_seconds"] / e["traced_wall_s"])
        for e in timed
    ]
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["ctmc.ref_err"] = statistics.median(e.get("ref_err", 0.0) for e in timed)
    # Each op's traced and untraced calls ran back to back.
    metrics["tracing.overhead_frac"] = (
        statistics.median(e["traced_seconds"] / e["seconds"] for e in timed) - 1.0
    )
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_run" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ops").mkdir(parents=True)
    setup_s = None if trace else setup_seconds()
    tracer = tracing.Tracer()
    done = time_ops(workload.ops(work, seed), seconds, trace, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    entries = []
    for index, (op, code, timings, problems, timed) in enumerate(done):
        entries.append(check(op, code, problems))
        entries[-1].update(op=index, timed=timed, **timings)
        shutil.rmtree(op.table.parent, ignore_errors=True)
    timed = [e for e in entries if e["timed"]]
    op_s = [e["seconds"] for e in timed]
    failed = sum(1 for e in entries if not e["ok"])

    if trace:
        metrics, units = layer_metrics(tracer, timed), tracing.LAYER_METRICS
        (work / "spans.json").write_text(json.dumps(tracer.dump()))
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(op_s),
            "op_s_tail": statistics.quantiles(op_s, n=100, method="inclusive")[
                workload.tail_pct - 1
            ],
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tail_pct": workload.tail_pct,
        "timed_ops": len(timed),
        "fail_frac": failed / len(entries),
        "wall_s_p50": statistics.median(e["wall_s"] for e in timed),
        "metrics": metrics,
        "ops": entries,
    }
    refs = [e["ref_err"] for e in timed if "ref_err" in e]
    if refs:
        report["ref_err"] = statistics.median(refs)
    (work / "report.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(work / "ops", ignore_errors=True)

    for e in entries:
        if not e["ok"]:
            print(f"op {e['op']} failed: {e['problems']}", file=sys.stderr)
    print(f"# {workload.name} seed={seed} timed_ops={len(timed)} tail=p{workload.tail_pct}")
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    print(f"#   fail_frac = {report['fail_frac']:.6g} ({failed}/{len(entries)} ops)")
    print(f"#   wall_s_p50 = {report['wall_s_p50']:.6g} s (uncalibrated)")
    if refs:
        print(f"#   ref_err = {report['ref_err']:.6g} (median sup-norm to the mean-field flow)")
    return {
        "correct": failed == 0,
        "attempted": len(entries),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epiresponse" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'epiresponse'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        worst = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
        return worst

    sys.path.insert(0, str(SRC))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
