import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiresponse import cli, integrator
from epiresponse.cli import _csv_text, main
from epiresponse.config import format_value
from epiresponse.equilibria import equilibrium_infection_vs_gamma, find_equilibria
from epiresponse.model import (
    ClassSpec,
    ConstantResponse,
    ModelParams,
    SigmoidResponse,
    StepResponse,
    TabulatedResponse,
    eval_response_selected,
)
from epiresponse.sampling import MAX_GRID_POINTS
from epiresponse.traces import run_trace_experiment
from test_acceptance import CONFIGS

FIXTURE = Path(__file__).parent / "data" / "five_node.csv"

SLIDING_CFG = """\
beta = 1
gamma = 1
delta = 0.5
kind = step
i_star = 0.2
"""


def run(tmp_path, command, cfg, *extra, name="run"):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(cfg)
    out = tmp_path / name
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# --------------------------------------------------------------- equilibria


def test_equilibria_sliding_report(tmp_path):
    code, out = run(tmp_path, "equilibria", SLIDING_CFG)
    assert code == 0
    report = json.loads((out / "equilibria.json").read_text())
    assert report["params"] == {"beta": 1.0, "gamma": 1.0, "delta": 0.5}
    assert report["response"] == {"kind": "step", "i_star": 0.2}
    e0, e2 = report["equilibria"]
    assert e0["kind"] == "disease_free"
    assert (e0["s"], e0["i"]) == (1.0, 0.0)
    assert e0["stability"]["verdict"] == "saddle"
    assert e0["stability"]["eigenvalues"] == [[-1.0, 0.0], [0.5, 0.0]]
    assert e2["kind"] == "sliding"
    assert (e2["s"], e2["i"]) == (0.5, 0.2)
    assert e2["stability"]["verdict"] == "asymptotically_stable"
    assert e2["stability"]["a_plus"] == pytest.approx(-4.0 / 3.0)
    assert e2["stability"]["a_minus"] == pytest.approx(4.0)
    assert e2["aux_p_ps"] == pytest.approx(1.0 / 3.0)


def test_equilibria_subcritical(tmp_path):
    cfg = "beta = 0.5\ngamma = 1\ndelta = 1\nkind = step\ni_star = 0.5\n"
    code, out = run(tmp_path, "equilibria", cfg)
    assert code == 0
    report = json.loads((out / "equilibria.json").read_text())
    assert len(report["equilibria"]) == 1
    assert report["equilibria"][0]["stability"]["verdict"] == "asymptotically_stable"


def test_equilibria_gamma_zero_step_is_degenerate(tmp_path, capsys):
    # without decision updates the whole line i = 0 is stationary: only X0
    # is reported, flagged, as for a sigmoid response
    rates = "beta = 1\ngamma = 0\ndelta = 0.5\n"
    for response in ("kind = step\n", "kind = sigmoid\nepsilon = 0.1\n"):
        code, out = run(tmp_path, "equilibria", rates + response + "i_star = 0.2\n")
        assert code == 0
        (entry,) = json.loads((out / "equilibria.json").read_text())["equilibria"]
        assert entry["kind"] == "disease_free"
        assert entry["degenerate"]
        assert capsys.readouterr().out.startswith("disease_free: (1, 0) ")


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            "beta = 1.7e308\ngamma = 1.7e308\ndelta = 1\nkind = step\ni_star = 0.5\n",
            "the sliding point's a_plus = -inf is not finite",
        ),
        (
            "beta = 1e308\ngamma = 1e308\ndelta = 1e-300\n"
            "kind = tabulated\nknots = 0.9,0.95\np_sp_values = 0,1\np_ps_values = 1,0\n",
            "the endemic point's eigenvalues = [[-inf, 0.0], [-1e-300, 0.0]] is not finite",
        ),
    ],
)
def test_non_finite_stability_is_refused_by_the_rate_keys(tmp_path, capsys, cfg, message):
    # strict JSON has no inf or nan: an overflowing quantity writes no report
    code, out = run(tmp_path, "equilibria", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: keys 'beta', 'gamma', 'delta': {message}\n"
    assert not (out / "equilibria.json").exists()


def test_missing_required_key_names_it(tmp_path, capsys):
    cfg = "gamma = 1\ndelta = 0.5\nkind = step\ni_star = 0.2\n"
    code, _ = run(tmp_path, "equilibria", cfg)
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_unknown_key_names_it(tmp_path, capsys):
    code, _ = run(tmp_path, "equilibria", SLIDING_CFG + "betta = 3\n")
    assert code == 2
    assert "betta" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    code = main(["equilibria", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rates, i_star, verdict",
    [
        ("beta = 2\ngamma = 1\ndelta = 1\n", "0.25", "boundary"),  # i_star == I1
        ("beta = 1\ngamma = 1e-300\ndelta = 1e-308\n", "1e-20", "boundary"),  # P+ = 0
        ("beta = 1e-300\ngamma = 1\ndelta = 1e-310\n", "1e-30", "asymptotically_stable"),
    ],
)
def test_every_listed_sliding_point_is_classified(tmp_path, rates, i_star, verdict):
    # a tie i_star == I1 and underflowing rates: each listed X2 gets a verdict
    cfg = rates + f"kind = step\ni_star = {i_star}\n"
    code, out = run(tmp_path, "equilibria", cfg, name="eq")
    assert code == 0
    entry = json.loads((out / "equilibria.json").read_text())["equilibria"][-1]
    assert entry["kind"] == "sliding"
    assert entry["stability"]["verdict"] == verdict
    if verdict == "boundary":
        assert entry["stability"]["a_plus"] is entry["stability"]["a_minus"] is None
    code, _ = run(tmp_path, "integrate", cfg + "s0 = 0.9\ni0 = 0.05\n", name="int")
    assert code == 0
    code, _ = run(tmp_path, "basin", cfg + "grid_n = 4\n", name="basin")
    assert code == 0


def test_boundary_sliding_point_is_reached_without_capture(tmp_path, capsys):
    # a boundary verdict arms no spiral capture; the run still rests at X2
    cfg = "beta = 2\ngamma = 1\ndelta = 1\nkind = step\ni_star = 0.25\ns0 = 0.9\ni0 = 0.05\n"
    code, out = run(tmp_path, "integrate", cfg)
    assert code == 0
    assert "terminated: equilibrium at t = 22.1" in capsys.readouterr().out
    _, rows = read_csv(out / "trajectory.csv")
    assert [float(v) for v in rows[-1][1:3]] == pytest.approx([0.5, 0.25], abs=1e-7)
    _, events = read_csv(out / "events.csv")
    assert events[-1][1] == "ReachedEquilibrium"
    assert "HitSliding" not in {event for _, event in events}


# ---------------------------------------------------------------- integrate


def test_integrate_writes_trajectory_events_and_field(tmp_path, capsys):
    cfg = SLIDING_CFG + "s0 = 0.9\ni0 = 0.05\nt_max = 6\nfield_grid_n = 6\n"
    code, out = run(tmp_path, "integrate", cfg, "--vector-field")
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "s", "i", "p"]
    assert [float(v) for v in rows[0]] == pytest.approx([0.0, 0.9, 0.05, 0.05])
    for _, s, i, p in rows:
        assert float(s) + float(i) + float(p) == pytest.approx(1.0, abs=1e-12)
    header, rows = read_csv(out / "events.csv")
    assert header == ["t", "event"]
    assert rows and rows[0][1] == "CrossUp"
    assert "terminated: t_max" in capsys.readouterr().out

    spec = StepResponse(0.2)
    header, rows = read_csv(out / "field.csv")
    assert header == ["s", "i", "ds", "di"]
    assert len(rows) == sum(1 for a in range(6) for b in range(6) if a + b <= 5)
    for s, i, ds, di in ((float(v) for v in row) for row in rows):
        p_sp, p_ps = eval_response_selected(spec, i)
        assert ds == pytest.approx(-s * i - s * p_sp + (1 - s - i) * p_ps, abs=1e-15)
        assert di == pytest.approx((s - 0.5) * i, abs=1e-15)


def test_integrate_json_format(tmp_path):
    cfg = SLIDING_CFG + "s0 = 0.9\ni0 = 0.05\nt_max = 1\n"
    code, out = run(tmp_path, "integrate", cfg, "--format", "json")
    assert code == 0
    payload = json.loads((out / "trajectory.json").read_text())
    assert payload["columns"] == ["t", "s", "i", "p"]
    assert payload["rows"][0][:3] == [0.0, 0.9, 0.05]
    assert not (out / "trajectory.csv").exists()


def test_integrate_reaches_sliding_equilibrium(tmp_path):
    cfg = SLIDING_CFG + "s0 = 0.9\ni0 = 0.05\n"
    code, out = run(tmp_path, "integrate", cfg)
    assert code == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert [float(v) for v in rows[-1][1:3]] == [0.5, 0.2]
    _, events = read_csv(out / "events.csv")
    assert events[-1][1] == "ReachedEquilibrium"
    assert events[-2][1] == "HitSliding"


# -------------------------------------------------------------------- basin


def test_basin_subcritical_all_disease_free(tmp_path):
    cfg = "beta = 0.4\ngamma = 1\ndelta = 0.5\nkind = step\ni_star = 0.5\ngrid_n = 4\n"
    code, out = run(tmp_path, "basin", cfg)
    assert code == 0
    header, rows = read_csv(out / "basin.csv")
    assert header == ["s0", "i0", "label"]
    assert len(rows) == 10  # 4x4 grid clipped to the simplex
    assert {row[2] for row in rows} == {"disease_free"}


def test_basin_gamma_zero_all_disease_free(tmp_path):
    # without decision updates every point of i = 0 is stationary, and
    # every start comes to rest on that line instead of running to t_max
    cfg = "beta = 1\ngamma = 0\ndelta = 0.5\nkind = step\ni_star = 0.2\ngrid_n = 20\n"
    code, out = run(tmp_path, "basin", cfg)
    assert code == 0
    _, rows = read_csv(out / "basin.csv")
    assert len(rows) == 210
    assert {row[2] for row in rows} == {"disease_free"}


@pytest.mark.parametrize("command", ["equilibria", "basin", "converge"])
def test_response_without_decision_pressure_exits_3(tmp_path, capsys, command):
    cfg = "beta = 1\ngamma = 1\ndelta = 0.5\nkind = constant\np_sp = 0\np_ps = 0\n"
    if command == "basin":
        cfg += "grid_n = 3\n"
    if command == "converge":
        cfg += "n_list = 10\nruns_per_n = 1\ns0 = 0.9\ni0 = 0.1\nt_max = 1\nseed = 1\n"
    code, _ = run(tmp_path, command, cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert "p_sp = 0.0, p_ps = 0.0 at i = 0" in err


# -------------------------------------------------------------- sweep-gamma


def test_sweep_gamma_step_closed_form(tmp_path):
    cfg = (
        "beta = 1\ndelta = 0.5\nkind = step\ni_star = 0.3\n"
        "gamma_min = 0.1\ngamma_max = 10\ngamma_count = 5\n"
    )
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["gamma", "i_eq", "kind"]
    assert len(rows) == 5
    for gamma_s, i_eq_s, kind in rows:
        gamma, i_eq = float(gamma_s), float(i_eq_s)
        assert i_eq == pytest.approx(min(0.5 / (1.0 + 0.5 / gamma), 0.3), abs=1e-12)
    assert rows[0][2] == "endemic"
    assert rows[-1][2] == "sliding"


@pytest.mark.parametrize(
    "beta, delta, i_star, log_spacing",
    [
        (1.3, 0.4, 0.25, True),  # endemic, then sliding
        (2.0, 0.5, 1.0, False),  # endemic only
        (0.5, 0.5, 0.1, True),  # delta == beta: disease-free
        (0.4, 0.7, 0.1, False),  # delta > beta: disease-free
    ],
)
def test_sweep_gamma_step_rows_equal_closed_form(tmp_path, beta, delta, i_star, log_spacing):
    cfg = (
        f"beta = {beta}\ndelta = {delta}\nkind = step\ni_star = {i_star}\n"
        f"gamma_min = 0.01\ngamma_max = 100\ngamma_count = 40\n"
        f"log_spacing = {format_value(log_spacing)}\n"
    )
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 0
    if log_spacing:
        grid = np.logspace(math.log10(0.01), math.log10(100.0), 40)
    else:
        grid = np.linspace(0.01, 100.0, 40)
    want = [
        [format_value(float(row.gamma)), format_value(row.i_eq), row.kind.value]
        for row in equilibrium_infection_vs_gamma(beta, delta, i_star, grid)
    ]
    _, rows = read_csv(out / "sweep.csv")
    assert rows == want


@pytest.mark.parametrize("beta", ["0", "-1"])
def test_sweep_gamma_rejects_invalid_beta(tmp_path, capsys, beta):
    cfg = (
        f"beta = {beta}\ndelta = 0.5\nkind = step\ni_star = 0.3\n"
        "gamma_min = 0.1\ngamma_max = 10\n"
    )
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 2
    assert "beta" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_gamma_sigmoid_needs_epsilon(tmp_path, capsys):
    cfg = (
        "beta = 1\ndelta = 0.5\nkind = sigmoid\ni_star = 0.3\n"
        "gamma_min = 0.1\ngamma_max = 10\n"
    )
    code, _ = run(tmp_path, "sweep-gamma", cfg)
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def test_sweep_gamma_sigmoid_levels_increase(tmp_path):
    cfg = (
        "beta = 1\ndelta = 0.5\nkind = sigmoid\ni_star = 0.3\nepsilon = 0.05\n"
        "gamma_min = 0.1\ngamma_max = 10\ngamma_count = 8\nlog_spacing = false\n"
    )
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    levels = [float(r[1]) for r in rows]
    assert levels == sorted(levels)
    assert all(r[2] == "endemic" for r in rows)
    assert levels[-1] < 0.3 + 0.05  # capped around the threshold band


SWEEP_RESPONSES = {
    "tabulated": (
        "kind = tabulated\nknots = 0,0.2,0.25,1\n"
        "p_sp_values = 0,0,1,1\np_ps_values = 1,1,0,0\n",
        TabulatedResponse((0.0, 0.2, 0.25, 1.0), (0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 0.0)),
    ),
    "constant": ("kind = constant\np_sp = 0.2\np_ps = 0.6\n", ConstantResponse(0.2, 0.6)),
}


@pytest.mark.parametrize("kind", sorted(SWEEP_RESPONSES))
def test_sweep_gamma_rows_are_find_equilibria_for_every_response(tmp_path, kind):
    response, spec = SWEEP_RESPONSES[kind]
    cfg = f"beta = 1\ndelta = 0.5\n{response}gamma_min = 0.01\ngamma_max = 100\ngamma_count = 12\n"
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 0
    want = []
    for gamma in np.logspace(-2.0, 2.0, 12).tolist():
        last = find_equilibria(ModelParams(1.0, gamma, 0.5), spec)[-1]
        want.append([format_value(gamma), format_value(last.point.i), last.kind.value])
    _, rows = read_csv(out / "sweep.csv")
    assert rows == want
    assert {row[2] for row in rows} == {"endemic"}


def test_sweep_gamma_without_kind_exits_2(tmp_path, capsys):
    cfg = "beta = 1\ndelta = 0.5\ni_star = 0.3\ngamma_min = 0.1\ngamma_max = 10\n"
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 2
    assert "missing required key 'kind'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_gamma_log_grid_overflow_names_gamma_max(tmp_path, capsys):
    cfg = (
        "beta = 1\ndelta = 0.5\nkind = step\ni_star = 0.3\n"
        "gamma_min = 1\ngamma_max = 1.7976931348622105e+308\nlog_spacing = true\n"
    )
    code, out = run(tmp_path, "sweep-gamma", cfg)
    assert code == 2
    assert "key 'gamma_max'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


# ----------------------------------------------------------------- simulate


SIM_CFG = (
    "beta = 1\ngamma = 1\ndelta = 0.5\nkind = step\ni_star = 0.2\n"
    "n = 100\ns0 = 0.9\ni0 = 0.1\nt_max = 5\nsample_dt = 0.5\nseed = 7\n"
)


def test_simulate_output_and_rerun_identical(tmp_path):
    code_a, out_a = run(tmp_path, "simulate", SIM_CFG, name="a")
    code_b, out_b = run(tmp_path, "simulate", SIM_CFG, name="b")
    assert code_a == code_b == 0
    bytes_a = (out_a / "run.csv").read_bytes()
    assert bytes_a == (out_b / "run.csv").read_bytes()
    header, rows = read_csv(out_a / "run.csv")
    assert header == ["t", "n_s", "n_i", "n_p", "seed"]
    assert len(rows) == 11
    assert rows[0][1:] == ["90", "10", "0", "7"]
    assert all(int(r[1]) + int(r[2]) + int(r[3]) == 100 for r in rows)


def test_simulate_seed_flag_overrides_config(tmp_path):
    code_a, out_a = run(tmp_path, "simulate", SIM_CFG, name="a")
    code_b, out_b = run(tmp_path, "simulate", SIM_CFG, "--seed", "8", name="b")
    assert code_a == code_b == 0
    assert (out_a / "run.csv").read_bytes() != (out_b / "run.csv").read_bytes()
    _, rows = read_csv(out_b / "run.csv")
    assert rows[0][4] == "8"


def test_simulate_requires_a_seed(tmp_path, capsys):
    cfg = SIM_CFG.replace("seed = 7\n", "")
    code, _ = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert "seed" in capsys.readouterr().err


# ----------------------------------------------------------------- converge


def test_converge_table(tmp_path):
    cfg = (
        "beta = 1\ngamma = 1\ndelta = 0.5\nkind = sigmoid\ni_star = 0.5\n"
        "epsilon = 0.05\nn_list = 50,200\nruns_per_n = 2\ns0 = 0.95\ni0 = 0.05\n"
        "t_max = 5\nsample_dt = 0.5\nseed = 11\n"
    )
    code, out = run(tmp_path, "converge", cfg)
    assert code == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["n", "mean_error", "std_error", "runs"]
    assert [r[0] for r in rows] == ["50", "200"]
    assert all(float(r[1]) > 0.0 for r in rows)
    assert all(r[3] == "2" for r in rows)


# -------------------------------------------------------------------- trace


TRACE_CFG = (
    "gamma = 0.001\ndelta = 0.0005\ni_star = 0.5\nepsilon = 0.01\n"
    "runs = 2\ngrid_dt = 60\nseed = 3\n"
)


def test_trace_single_class(tmp_path):
    code_a, out_a = run(tmp_path, "trace", TRACE_CFG, str(FIXTURE), name="a")
    code_b, out_b = run(tmp_path, "trace", TRACE_CFG, str(FIXTURE), name="b")
    assert code_a == code_b == 0
    assert (out_a / "trace_avg.csv").read_bytes() == (out_b / "trace_avg.csv").read_bytes()
    header, rows = read_csv(out_a / "trace_avg.csv")
    assert header == ["t", "s_total", "i_total", "s_c1", "i_c1"]
    assert rows
    # single class: the class fractions are the aggregate fractions
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[3]), abs=1e-12)
        assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-12)


def test_trace_two_classes(tmp_path):
    cfg = TRACE_CFG + "i_star2 = 0.9\nepsilon2 = 0.01\nsplit = 0.4\n"
    code, out = run(tmp_path, "trace", cfg, str(FIXTURE))
    assert code == 0
    header, _ = read_csv(out / "trace_avg.csv")
    assert header == ["t", "s_total", "i_total", "s_c1", "i_c1", "s_c2", "i_c2"]


def test_trace_two_classes_need_split(tmp_path, capsys):
    cfg = TRACE_CFG + "i_star2 = 0.9\nepsilon2 = 0.01\n"
    code, _ = run(tmp_path, "trace", cfg, str(FIXTURE))
    assert code == 2
    assert "split" in capsys.readouterr().err


TWO = "i_star2 = 0.9\nepsilon2 = 0.01\n"
NO_EPS2 = "missing required key 'epsilon2' for two classes"
OUT_OF_RANGE = "key 'split': must lie strictly between 0 and 1"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("i_star2 = 0.9\nsplit = 0.4\n", NO_EPS2),
        ("i_star2 = 0.9\n", NO_EPS2),
        (TWO, "missing required key 'split' for two classes"),
        ("epsilon2 = 0.01\n", "key 'epsilon2' requires 'i_star2'"),
        ("epsilon2 = 0.01\nsplit = 0.4\n", "key 'epsilon2' requires 'i_star2'"),
        ("split = 0.4\n", "key 'split' requires 'i_star2'"),
        (TWO + "split = 1\n", OUT_OF_RANGE),
        (TWO + "split = 0\n", OUT_OF_RANGE),
    ],
)
def test_trace_class_keys_name_the_first_missing_or_stray_key(
    tmp_path, capsys, extra, message
):
    code, out = run(tmp_path, "trace", TRACE_CFG + extra, str(FIXTURE))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "trace_avg.csv").exists()


@pytest.mark.parametrize("split, sizes", [(0.01, (1, 4)), (0.99, (4, 1)), (0.4, (2, 3))])
def test_trace_split_keeps_a_node_in_each_class(tmp_path, monkeypatch, split, sizes):
    seen = []

    def spy(trace, exp, seed):
        seen.append(exp)
        return run_trace_experiment(trace, exp, seed)

    monkeypatch.setattr(cli, "run_trace_experiment", spy)
    cfg = TRACE_CFG + f"i_star2 = 0.9\nepsilon2 = 0.02\nsplit = {split}\n"
    code, _ = run(tmp_path, "trace", cfg, str(FIXTURE))
    assert code == 0
    (exp,) = seen
    labels = list(exp.class_assignment.values())
    assert (labels.count(0), labels.count(1)) == sizes
    assert exp.classes == (
        ClassSpec(split, SigmoidResponse(0.5, 0.01)),
        ClassSpec(1.0 - split, SigmoidResponse(0.9, 0.02)),
    )


def test_trace_unknown_infected_node(tmp_path, capsys):
    cfg = TRACE_CFG + "infected_nodes = 99\n"
    code, _ = run(tmp_path, "trace", cfg, str(FIXTURE))
    assert code == 2
    assert "99" in capsys.readouterr().err


def test_trace_protected_node_named_as_infected(tmp_path, capsys):
    cfg = TRACE_CFG + "infected_nodes = 1,2\nprotected_nodes = 2,4\n"
    code, out = run(tmp_path, "trace", cfg, str(FIXTURE))
    assert code == 2
    err = capsys.readouterr().err
    assert "'protected_nodes'" in err and "[2]" in err
    assert not (out / "trace_avg.csv").exists()


def test_trace_protected_node_infected_by_default(tmp_path, capsys):
    # without 'infected_nodes' the trace's first node, 0, starts infected
    code, _ = run(tmp_path, "trace", TRACE_CFG + "protected_nodes = 0\n", str(FIXTURE))
    assert code == 2
    err = capsys.readouterr().err
    assert "'protected_nodes'" in err and "[0]" in err


def test_trace_malformed_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,5,4\n")
    code, _ = run(tmp_path, "trace", TRACE_CFG, str(bad))
    assert code == 3
    assert "line 1" in capsys.readouterr().err


# ------------------------------------------------------------ work budgets

BUDGET_CASES = {
    "grid": ("simulate", SIM_CFG.replace("sample_dt = 0.5", "sample_dt = 1e-9"), "cap"),
    "events": ("simulate", SIM_CFG.replace("beta = 1\n", "beta = 1e12\n"), "budget"),
    "trace-grid": ("trace", TRACE_CFG.replace("grid_dt = 60", "grid_dt = 1e-6"), "cap"),
    # every run has a fixed cost, however few events it expects
    "converge-study": (
        "converge",
        SLIDING_CFG + "n_list = 10\nruns_per_n = 10000000\ns0 = 0.9\ni0 = 0.1\n"
        "t_max = 1\nseed = 1\n",
        "runs_per_n = 10000000 runs for each n in n_list = [10]",
    ),
    # no clock at all: the runs and their contacts are the work
    "trace-runs": (
        "trace",
        TRACE_CFG.replace("gamma = 0.001\ndelta = 0.0005\n", "gamma = 0\ndelta = 0\n")
        .replace("runs = 2\n", "runs = 100000000\n"),
        "runs = 100000000 replays of 5 contacts",
    ),
    # each run samples its whole grid of 482,001 points: ~0.1 s a run
    "trace-grid-runs": (
        "trace",
        TRACE_CFG.replace("grid_dt = 60", "grid_dt = 0.005")
        .replace("runs = 2\n", "runs = 50000\n"),
        "runs = 50000 replays of 5 contacts",
    ),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_work_past_a_budget_exits_2_at_once(tmp_path, capsys, case):
    command, cfg, word = BUDGET_CASES[case]
    extra = (str(FIXTURE),) if command == "trace" else ()
    start = time.perf_counter()
    code, _ = run(tmp_path, command, cfg, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert word in capsys.readouterr().err


# A grid count past sampling.MAX_GRID_POINTS points: gamma_count is its
# grid, grid_n and field_grid_n make a triangle of grid_n * (grid_n + 1) / 2.
GRID_COUNTS = [
    ("sweep-gamma", "gamma_count", MAX_GRID_POINTS + 1, ()),
    ("sweep-gamma", "gamma_count", 10**13, ()),
    ("basin", "grid_n", 1414, ()),
    ("basin", "grid_n", 10**13, ()),
    ("integrate", "field_grid_n", 1414, ("--vector-field",)),
    ("integrate", "field_grid_n", 10**13, ("--vector-field",)),
]


@pytest.mark.parametrize("command, key, count, extra", GRID_COUNTS)
def test_oversized_grid_count_exits_2_before_any_output(
    tmp_path, capsys, command, key, count, extra
):
    cfg = "".join(
        line + "\n" for line in CONFIGS[command].splitlines() if not line.startswith(key)
    )
    start = time.perf_counter()
    code, out = run(tmp_path, command, cfg + f"{key} = {count}\n", *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"key '{key}': {count} makes a grid of" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_step_budget_exits_3_before_any_output(tmp_path, capsys, monkeypatch):
    # a Zeno spiral without capture at the default t_max = 1e4
    monkeypatch.setattr(integrator, "MAX_STEPS", 2000)
    cfg = (
        "beta = 1\ngamma = 3\ndelta = 0.2\nkind = step\ni_star = 0.1\n"
        "s0 = 0.6\ni0 = 0.1\ncapture_spiral = false\n"
    )
    start = time.perf_counter()
    code, out = run(tmp_path, "integrate", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step budget of 2000 DP5 attempts")
    assert "Zeno" in err and "capture_spiral" in err
    assert not any(out.iterdir())


OFF_SIMPLEX = {
    "integrate": SLIDING_CFG + "s0 = 0.95\ni0 = 0.95\nt_max = 1\n",
    "simulate": SIM_CFG.replace("i0 = 0.1\n", "i0 = 0.95\n").replace("s0 = 0.9\n", "s0 = 0.95\n"),
    "converge": CONFIGS["converge"].replace("i0 = 0.05\n", "i0 = 0.95\n"),
}


@pytest.mark.parametrize("command", sorted(OFF_SIMPLEX))
def test_start_off_the_simplex_names_s0_and_i0(tmp_path, capsys, command):
    code, _ = run(tmp_path, command, OFF_SIMPLEX[command])
    assert code == 2
    err = capsys.readouterr().err
    assert "'s0'" in err and "'i0'" in err and "(0.95, 0.95)" in err


# ------------------------------------------------------------- output pins

# SHA-256 of the stochastic engines' outputs on test_acceptance.CONFIGS,
# and on a two-class trace whose class tables and per-class logs both
# move.  A change to the random stream or to the rounding of a sample
# changes these digests; such a change must be deliberate and announced.
# The first two were re-pinned when the engines came to share the clock:
# its blocks are sized to the run's expected events, so a run expecting
# fewer than 65,536 (both of these) draws a new stream.
PINNED_RUNS = {
    "simulate": ("simulate", CONFIGS["simulate"]),
    "trace": ("trace", CONFIGS["trace"]),
    "trace-two-class": (
        "trace",
        "gamma = 0.01\ndelta = 0.002\ni_star = 0.3\nepsilon = 0.2\n"
        "i_star2 = 0.7\nepsilon2 = 0.3\nsplit = 0.4\nruns = 5\ngrid_dt = 60\n"
        "protected_nodes = 3\nseed = 3\n",
    ),
}
PINNED_SHA256 = {
    ("simulate", "run.csv"): (
        "4da52e74920196b0b3cdbe4bb249bdb47cdfda24cd634186e004b723483eda38"
    ),
    ("trace", "trace_avg.csv"): (
        "fce211144a5843256ff7981339b4bbcbf56145a2aac33085eeb7a099aa6c59bf"
    ),
    ("trace-two-class", "trace_avg.csv"): (
        "d3c727ee4cb52c66c911097b8bc86ae9650ef9003bdf0926cf11ffbb169d0264"
    ),
}


@pytest.mark.parametrize("run_name, name", sorted(PINNED_SHA256))
def test_stochastic_outputs_match_pinned_digests(tmp_path, run_name, name):
    command, cfg = PINNED_RUNS[run_name]
    extra = (str(FIXTURE),) if command == "trace" else ()
    code, out = run(tmp_path, command, cfg, *extra)
    assert code == 0
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest == PINNED_SHA256[(run_name, name)]


# SHA-256 of the deterministic integrator's outputs.  `integrate` and
# `basin` write what the Dormand-Prince steps, the crossing location, the
# sliding capture and the rest test compute, to the last bit; a rewrite of
# the integration loop must leave every one of these unchanged.  The
# `capture` pair was re-pinned when the capture rule became the normal-form
# certificate (1/r gains |A+ - A-| per loop): that run now ends at
# t = 7.19 after 5 crossings, where the old streak of radii below 3e-3
# ended it at t = 15.01 after 130; every other digest stayed as it was.
# The `sigmoid` trajectory was re-pinned when `integrate` began to locate
# the ramp's kinks: its samples now include accepted points with i exactly
# on a knot, and the run lies ~30x closer to DOP853 (2.8e-8 -> 8.0e-10);
# every step digest, the basins and `sigmoid/field.csv` stayed as they were.
INTEGRATOR_RUNS = {
    "capture": ("integrate", SLIDING_CFG + "s0 = 0.9\ni0 = 0.05\n", ()),
    "no-capture": (
        "integrate",
        SLIDING_CFG + "s0 = 0.9\ni0 = 0.05\nt_max = 12\ncapture_spiral = false\n",
        (),
    ),
    "sigmoid": (
        "integrate",
        "beta = 1\ngamma = 1\ndelta = 0.5\nkind = sigmoid\ni_star = 0.2\n"
        "epsilon = 0.05\ns0 = 0.9\ni0 = 0.05\nfield_grid_n = 6\n",
        ("--vector-field",),
    ),
    "step-basin": ("basin", SLIDING_CFG + "grid_n = 5\n", ()),
    "tabulated-basin": (
        "basin",
        "beta = 1\ngamma = 1\ndelta = 0.5\nkind = tabulated\n"
        "knots = 0,0.2,0.25,1\np_sp_values = 0,0,1,1\np_ps_values = 1,1,0,0\n"
        "grid_n = 5\n",
        (),
    ),
}
INTEGRATOR_SHA256 = {
    ("capture", "trajectory.csv"): (
        "e5d194e9c392478b55391da81a2c57c85757f02efa10ce47d1b6a9368c797606"
    ),
    ("capture", "events.csv"): (
        "1a326859128f3e5804aa8e60e040a652d8c6793552423e4de89321e261c973ea"
    ),
    ("no-capture", "trajectory.csv"): (
        "3d61e4745cce131fd5ceb03754f6f991e521119818268d3f13b3378adabee4bb"
    ),
    ("no-capture", "events.csv"): (
        "6357095ef7cf05f19b9cc1d6d76ed612b26e233d445da4145bc9e0cc3a8a5a68"
    ),
    ("sigmoid", "trajectory.csv"): (
        "957ca211ff776c310b69dbcfbd8ee8485dbcccfebdde7c6680a40775643ac2ae"
    ),
    ("sigmoid", "field.csv"): (
        "dd87681c487dd39449598c490199adffe59c8f167ae9ffc7ad95d7b8c5cbcab6"
    ),
    ("step-basin", "basin.csv"): (
        "84db3d4e309582b958d5e71ab0d08a0b8f5358e7dc26303bd6b13061a3607e7b"
    ),
    ("tabulated-basin", "basin.csv"): (
        "4d170a52010b15ae15f7591e56f939535a66e35cffb457a24a733b4360526f9c"
    ),
}


@pytest.mark.parametrize("case", sorted(INTEGRATOR_RUNS))
def test_integrator_outputs_match_pinned_digests(tmp_path, case):
    command, cfg, extra = INTEGRATOR_RUNS[case]
    code, out = run(tmp_path, command, cfg, *extra)
    assert code == 0
    for (pinned_case, name), digest in INTEGRATOR_SHA256.items():
        if pinned_case == case:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_a_run_of_full_clock_blocks_keeps_its_stream(tmp_path):
    # 125,000 expected events: every block holds 65,536, as the jump
    # process drew them before its blocks were sized to the run
    cfg = SIM_CFG.replace("n = 100\n", "n = 10000\n")
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    digest = hashlib.sha256((out / "run.csv").read_bytes()).hexdigest()
    assert digest == "54dd4f24a59bbd0eecc8fd83414e695f1bb46bdddfc810f39e1f8485844692b1"


# ---------------------------------------------------------------- CSV tables

CELL_KINDS = (
    st.floats(),  # nan, +-inf and subnormals included
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310]),
    st.sampled_from([0.0, -0.0]),  # one column holds both zeros
    st.floats(1e16, 1e17),
    st.floats(-1e17, -1e16),
    st.integers(-(2**70), 2**70),
    st.sampled_from(["sliding", "t_max"]),
)


@st.composite
def tables(draw):
    """A header and rows whose columns each hold one kind of cell; drawing
    half the cells from a small pool makes values repeat in a column."""
    n_rows = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(CELL_KINDS), min_size=1, max_size=8)):
        pool = st.sampled_from(draw(st.lists(kind, min_size=1, max_size=3)))
        cells = st.one_of(kind, pool)
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    header = tuple(f"c{k}" for k in range(len(columns)))
    return header, list(zip(*columns))


def format_value_table(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


@given(tables())
def test_csv_writer_writes_what_format_value_writes(table):
    header, rows = table
    want = format_value_table(header, rows)
    assert _csv_text(header, rows) == want
    if rows and all(isinstance(cell, float) for cell in rows[0]):
        # cmd_trace hands over its float array as it is
        assert _csv_text(header, np.array(rows, dtype=np.float64)) == want


def test_csv_writer_keeps_each_float_bit_pattern_apart():
    rows = [
        (0.0, 1, "sliding", 5e-324),
        (-0.0, 1, "sliding", -5e-324),
        (math.nan, -(2**70), "t_max", 0.1),
        (math.inf, 2, "sliding", 0.1),
        (-math.inf, 2, "t_max", 5e-324),
        (0.0, 3, "sliding", 2.2250738585072014e-308),
    ]
    header = ("a", "b", "c", "d")
    text = _csv_text(header, rows)
    assert text == format_value_table(header, rows)
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == [
        "0", "-0", "nan", "inf", "-inf", "0"
    ]
    floats = np.array([(a, d) for a, _, _, d in rows])
    assert _csv_text(("a", "d"), floats) == format_value_table(
        ("a", "d"), [(a, d) for a, _, _, d in rows]
    )


# --------------------------------------------------------------------- seeds

SEEDED = {
    "simulate": (SIM_CFG, ()),
    "converge": (CONFIGS["converge"], ()),
    "trace": (TRACE_CFG, (str(FIXTURE),)),
}


@pytest.mark.parametrize("source", ["key", "flag"])
@pytest.mark.parametrize("command", sorted(SEEDED))
def test_negative_seed_names_the_key(tmp_path, capsys, command, source):
    cfg, extra = SEEDED[command]
    if source == "key":
        cfg = "".join(
            line + "\n" for line in cfg.splitlines() if not line.startswith("seed")
        )
        cfg += "seed = -1\n"
    else:
        extra = ("--seed", "-1", *extra)
    code, _ = run(tmp_path, command, cfg, *extra)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: key 'seed': must be a non-negative integer\n"
    )


def test_trace_transient_cut_past_the_span_exits_2(tmp_path, capsys):
    # the fixture's contacts end at t = 2410 s
    code, _ = run(tmp_path, "trace", TRACE_CFG + "transient_cut = 2500\n", str(FIXTURE))
    assert code == 2
    assert "transient_cut" in capsys.readouterr().err


# ------------------------------------------------ every config ends in 0/2/3

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Any finite float, one draw in four; the others lie in [0, 1], so that
# most configs get past validation into the engines.
NUMBER = st.integers(0, 3).flatmap(lambda k: FINITE if k == 0 else st.floats(0.0, 1.0))
# Rate x time, the expected clock events per agent: the work bound on
# every command with a time horizon.
HORIZON = 15.0
SPAN = 2410.0  # the fixture's last contact ends here


def _response(draw, kinds=("step", "sigmoid", "constant", "tabulated")):
    kind = draw(st.sampled_from(kinds))
    cfg = {"kind": kind}
    if kind in ("step", "sigmoid"):
        cfg["i_star"] = draw(NUMBER)
    if kind == "sigmoid":
        cfg["epsilon"] = draw(NUMBER)
    if kind == "constant":
        cfg["p_sp"], cfg["p_ps"] = draw(NUMBER), draw(NUMBER)
    if kind == "tabulated":
        size = draw(st.integers(2, 4))
        column = st.lists(NUMBER, min_size=size, max_size=size).map(sorted)
        cfg["knots"], cfg["p_sp_values"] = draw(column), draw(column)
        cfg["p_ps_values"] = draw(column)[::-1]
    return cfg


def _horizon(draw, cfg, rates):
    """A t_max in (0, 5], shortened so that t_max * (sum of rates) stays
    within HORIZON."""
    total = sum(abs(cfg[key]) for key in rates)
    t_max = draw(st.floats(0.0, 5.0, exclude_min=True))
    return min(t_max, HORIZON / total) if total > 0.0 else t_max


def _optional(draw, cfg, key, strategy):
    if draw(st.booleans()):
        cfg[key] = draw(strategy)


def _count(most):
    """A grid count in [-1, most], or, one draw in eight, one whose grid
    holds more than MAX_GRID_POINTS points."""
    past = st.integers(MAX_GRID_POINTS + 1, 10**13)
    return st.integers(0, 7).flatmap(lambda k: past if k == 0 else st.integers(-1, most))


def _config(draw, command):
    if command == "sweep-gamma":
        cfg = {"beta": draw(NUMBER), "delta": draw(NUMBER)}
        cfg.update(_response(draw))
        cfg["gamma_min"], cfg["gamma_max"] = sorted((draw(NUMBER), draw(NUMBER)))
        _optional(draw, cfg, "gamma_count", _count(6))
        _optional(draw, cfg, "log_spacing", st.booleans())
        return cfg
    if command == "trace":
        cap = HORIZON / SPAN  # work: runs * nodes * (gamma + delta) * span
        rate = st.integers(0, 3).flatmap(
            lambda k: st.floats(max_value=cap) if k == 0 else st.floats(0.0, cap)
        )
        cfg = {"gamma": draw(rate), "delta": draw(rate)}
        cfg["i_star"], cfg["epsilon"] = draw(NUMBER), draw(NUMBER)
        if draw(st.booleans()):
            cfg["i_star2"], cfg["epsilon2"] = draw(NUMBER), draw(NUMBER)
            cfg["split"] = draw(NUMBER)
        _optional(draw, cfg, "runs", st.integers(-1, 3))
        _optional(draw, cfg, "transient_cut", NUMBER.map(lambda x: x * SPAN))
        cfg["grid_dt"] = draw(st.floats(SPAN / 500, SPAN))  # <= 501 grid points
        nodes = st.lists(st.integers(-1, 5), min_size=1, max_size=3)
        _optional(draw, cfg, "infected_nodes", nodes)
        _optional(draw, cfg, "protected_nodes", nodes)
        cfg["seed"] = draw(st.integers(-1, 2**32))
        return cfg
    cfg = {"beta": draw(NUMBER), "gamma": draw(NUMBER), "delta": draw(NUMBER)}
    cfg.update(_response(draw))
    if command == "equilibria":
        return cfg
    t_max = _horizon(draw, cfg, ("beta", "gamma", "delta"))
    if command in ("integrate", "basin"):
        cfg["t_max"] = t_max
        for key in ("rel_tol", "abs_tol", "event_tol", "equilibrium_eps"):
            _optional(draw, cfg, key, NUMBER)
        cfg["capture_spiral"] = draw(st.booleans())
        if command == "basin":
            cfg["grid_n"] = draw(_count(6))
            return cfg
        cfg["s0"], cfg["i0"] = draw(NUMBER), draw(NUMBER)
        _optional(draw, cfg, "field_grid_n", st.integers(0, 6))
        return cfg
    cfg["s0"], cfg["i0"] = draw(NUMBER), draw(NUMBER)
    cfg["t_max"] = t_max
    cfg["sample_dt"] = draw(st.floats(t_max / 500, t_max))  # <= 501 grid points
    cfg["seed"] = draw(st.integers(-1, 2**32))
    if command == "simulate":
        cfg["n"] = draw(st.integers(-1, 200))
        return cfg
    sizes = st.lists(st.integers(-1, 200), min_size=1, max_size=3, unique=True)
    cfg["n_list"] = sorted(draw(sizes))
    cfg["runs_per_n"] = draw(st.integers(-1, 3))
    return cfg


@settings(max_examples=400, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(CONFIGS)))
def test_every_schema_valid_config_exits_0_2_or_3(tmp_path_factory, data, command):
    """Every config the schema parses ends in exit 0, 2 or 3, never in an
    exception, and every JSON file it writes is strict JSON.  Values are
    any finite floats; only the work is bounded: n <= 200, t_max <= 5 and
    t_max * (|beta| + |gamma| + |delta|) <= 15, at most 501 grid points,
    grid_n and field_grid_n <= 6, runs and runs_per_n <= 3, gamma_count <= 6,
    and trace replays the fixture with (gamma + delta) * 2410 s <= 15.  A
    gamma_count or grid_n past the grid cap must exit 2."""
    cfg = _config(data.draw, command)
    text = "".join(f"{key} = {format_value(value)}\n" for key, value in cfg.items())
    extra = []
    if command == "integrate" and data.draw(st.booleans()):
        extra.append("--vector-field")
    if command != "equilibria" and data.draw(st.booleans()):
        extra.extend(("--format", "json"))
    if command == "trace":
        extra.append(str(FIXTURE))
    tmp = tmp_path_factory.mktemp(command)
    code, out = run(tmp, command, text, *extra)
    oversized = max(cfg.get("gamma_count", 0), cfg.get("grid_n", 0)) > MAX_GRID_POINTS
    assert code == 2 if oversized else code in (0, 2, 3)
    for path in out.glob("*.json"):  # strict JSON: no Infinity or NaN
        json.loads(path.read_text(), parse_constant=_not_json)


def _not_json(token):
    raise AssertionError(f"non-standard JSON constant {token}")
