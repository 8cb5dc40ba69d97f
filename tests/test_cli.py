import csv
import json
from pathlib import Path

import pytest

from epiresponse.cli import main
from epiresponse.model import SigmoidResponse, StepResponse, eval_response_selected

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


@pytest.mark.parametrize("command", ["equilibria", "basin"])
def test_response_without_decision_pressure_exits_3(tmp_path, capsys, command):
    cfg = "beta = 1\ngamma = 1\ndelta = 0.5\nkind = constant\np_sp = 0\np_ps = 0\n"
    if command == "basin":
        cfg += "grid_n = 3\n"
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


def test_trace_unknown_infected_node(tmp_path, capsys):
    cfg = TRACE_CFG + "infected_nodes = 99\n"
    code, _ = run(tmp_path, "trace", cfg, str(FIXTURE))
    assert code == 2
    assert "99" in capsys.readouterr().err


def test_trace_malformed_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,5,4\n")
    code, _ = run(tmp_path, "trace", TRACE_CFG, str(bad))
    assert code == 3
    assert "line 1" in capsys.readouterr().err
