"""Self-tests of the benchmark: its oracles catch corrupted outputs, its
tracing leaves the program as it found it, and BENCHMARK.json matches the
code.

    python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import epiresponse.cli as cli  # noqa: E402
import epiresponse.equilibria as equilibria  # noqa: E402
import epiresponse.integrator as integrator  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def first_op(workload: str, work: Path):
    (work / "ops").mkdir(parents=True)
    op = next(WORKLOADS[workload].ops(work, 7))
    with redirect_stdout(io.StringIO()):
        assert cli.main(op.argv) == 0
    problems, _ = op.check(op.table)
    assert problems == []
    return op


def corrupt(op, line_no: int, column: int, edit) -> list:
    lines = op.table.read_text().splitlines()
    cells = lines[line_no].split(",")
    cells[column] = edit(cells[column])
    lines[line_no] = ",".join(cells)
    op.table.write_text("\n".join(lines) + "\n")
    return op.check(op.table)[0]


def test_flipped_basin_label_fails(tmp_path):
    op = first_op("filippov-basin", tmp_path)
    # Line 2 is the start (0, 1/19): its label must be sliding.
    problems = corrupt(op, 2, 2, lambda _: "endemic")
    assert problems == [f"start (0.0, {1 / 19!r}): endemic, expected sliding"]


def test_trace_row_breaking_class_weighted_identity_fails(tmp_path):
    op = first_op("trace-two-class", tmp_path)
    problems = corrupt(op, 5, 3, lambda v: "0.3" if float(v) != 0.3 else "0.4")
    assert problems == ["s_total is not the class-weighted mean"]


def test_simulate_row_not_conserving_n_fails(tmp_path):
    op = first_op("ctmc-meanfield", tmp_path)
    problems = corrupt(op, 10, 1, lambda v: str(int(v) + 1))
    assert problems == ["n_s + n_i + n_p != 10000"]


def test_tracing_restores_every_wrapped_function(tmp_path):
    (tmp_path / "ops").mkdir()
    op = next(WORKLOADS["smooth-tabulated"].ops(tmp_path, 7))
    tracer = tracing.Tracer()
    plan = tracing._plan(tracer, cli, integrator, equilibria)
    before = [getattr(module, attr) for module, attr, _ in plan]
    with tracing.installed(tracer, cli, integrator, equilibria):
        assert all(getattr(m, a) is not f for (m, a, _), f in zip(plan, before))
        tracer.op = 0
        assert run.call(tracer.span("cli.main", cli.main), op.argv) == 0
    assert [getattr(module, attr) for module, attr, _ in plan] == before
    layers = tracing.op_layers(tracer, 0, 0, 1.0)
    assert layers["integrator.integrate_calls"] == 55
    assert layers["model.response_calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
