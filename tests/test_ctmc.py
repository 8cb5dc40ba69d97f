import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiresponse import ctmc, sampling
from epiresponse.ctmc import (
    AgentPopulation,
    SimRun,
    StudyRow,
    convergence_study,
    simulate_ctmc,
    sup_error,
)
from epiresponse.integrator import IntegratorConfig, integrate
from epiresponse.model import (
    ConstantResponse,
    ModelParams,
    SigmoidResponse,
    State,
    StepResponse,
    TabulatedResponse,
    compile_response,
)
from epiresponse.sampling import MOVES, clock_blocks, counts_on_grid

FIG = ModelParams(beta=1.0, gamma=1.0, delta=0.5)


# ------------------------------------------------------------- populations


def test_population_validation():
    with pytest.raises(ValueError):
        AgentPopulation(n=1, counts=(1, 0, 0))
    with pytest.raises(ValueError):
        AgentPopulation(n=10, counts=(5, 4, 0))
    with pytest.raises(ValueError):
        AgentPopulation(n=10, counts=(-1, 11, 0))
    with pytest.raises(ValueError):
        AgentPopulation(n=10, counts=(5, 5))
    pop = AgentPopulation(n=10, counts=(5, 4, 1))
    assert pop.fractions == (0.5, 0.4, 0.1)


def test_from_fractions_rounding():
    pop = AgentPopulation.from_fractions(10, 0.55, 0.25)
    assert pop.counts == (6, 2, 2)
    # when both halves round up, the susceptible count absorbs the excess
    pop = AgentPopulation.from_fractions(3, 0.5, 0.5)
    assert pop.counts == (1, 2, 0)
    assert sum(pop.counts) == 3
    with pytest.raises(ValueError):
        AgentPopulation.from_fractions(10, 0.8, 0.3)


def test_simulate_argument_validation():
    pop = AgentPopulation(n=10, counts=(9, 1, 0))
    with pytest.raises(ValueError):
        simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=0.0, seed=0)
    for dt in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sample_dt"):
            simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=1.0, seed=0, sample_dt=dt)
    # 10 * 1.8e308 is inf: every clock gap would be 0
    huge = ModelParams(beta=1.7976931348623157e308, gamma=1.0, delta=0.5)
    with pytest.raises(ValueError, match="overflows"):
        simulate_ctmc(huge, StepResponse(0.2), pop, t_max=1e-307, seed=0, sample_dt=1e-308)


def test_convergence_study_rejects_bad_sample_dt_before_building_its_grid():
    # sample_dt = 0 once reached the grid formula's division first
    for dt in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sample_dt"):
            convergence_study(
                FIG, StepResponse(0.2), State(0.9, 0.1), [10], runs_per_n=1,
                t_max=1.0, sample_dt=dt,
            )


# ----------------------------------------------------------- reproducibility


def test_bit_identical_for_identical_seed():
    pop = AgentPopulation.from_fractions(300, 0.9, 0.1)
    a = simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=8.0, seed=(7, 3))
    b = simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=8.0, seed=(7, 3))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=8.0, seed=(7, 4))
    assert not np.array_equal(a.counts, c.counts)


def test_sampling_grid_shape():
    pop = AgentPopulation.from_fractions(50, 0.9, 0.1)
    run = simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=5.0, seed=1,
                        sample_dt=0.5)
    assert np.allclose(run.times, np.arange(11) * 0.5)
    assert run.counts.shape == (11, 3)
    assert tuple(run.counts[0]) == pop.counts
    assert run.counts.sum(axis=1).tolist() == [50] * 11


# ----------------------------------------------------------------- counters


def test_audit_transition_identities():
    pop = AgentPopulation.from_fractions(400, 0.7, 0.2)
    run = simulate_ctmc(FIG, SigmoidResponse(0.3, 0.1), pop, t_max=20.0, seed=11)
    tc = run.transition_counts
    assert set(tc) == {"infect", "protect", "unprotect", "recover"}
    n_s0, n_i0, n_p0 = pop.counts
    n_s, n_i, n_p = run.counts[-1]
    assert n_s == n_s0 - tc["infect"] - tc["protect"] + tc["unprotect"]
    assert n_i == n_i0 + tc["infect"] - tc["recover"]
    assert n_p == n_p0 + tc["protect"] + tc["recover"] - tc["unprotect"]
    occ = run.occupation
    assert sum(occ) == pytest.approx(400 * 20.0, rel=1e-12)
    assert run.transition_counts is not None and run.occupation is not None


def test_counters_always_present():
    pop = AgentPopulation.from_fractions(50, 0.9, 0.1)
    run = simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=2.0, seed=1)
    assert set(run.transition_counts) == {"infect", "protect", "unprotect", "recover"}
    assert len(run.occupation) == 3


def test_every_move_conserves_the_population():
    assert all(sum(move) == 0 for move in MOVES)


RESPONSES = st.one_of(
    st.builds(StepResponse, st.floats(0.05, 1.0)),
    st.builds(SigmoidResponse, st.floats(0.05, 0.95), st.floats(0.01, 0.5)),
    st.builds(ConstantResponse, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.just(TabulatedResponse((0.0, 0.3, 1.0), (0.0, 0.5, 1.0), (1.0, 0.4, 0.0))),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    rates=st.tuples(st.floats(0.01, 3.0), st.floats(0.0, 3.0), st.floats(0.01, 3.0)),
    spec=RESPONSES,
    start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    sample_dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_counters_reconcile_the_sampled_path(n, rates, spec, start, sample_dt, steps, seed):
    """Each grid row is a population of n, the tallies carry the first row
    to the last, and the occupation integrals add up to n * t_max."""
    s0, i0 = start[0], start[1] * (1.0 - start[0])
    pop = AgentPopulation.from_fractions(n, s0, i0)
    t_max = steps * sample_dt
    run = simulate_ctmc(ModelParams(*rates), spec, pop, t_max, seed, sample_dt=sample_dt)
    assert len(run.times) == steps + 1
    assert (run.counts >= 0).all()
    assert (run.counts.sum(axis=1) == n).all()
    tc = run.transition_counts
    tallies = [tc["infect"], tc["protect"], tc["unprotect"], tc["recover"]]
    np.testing.assert_array_equal(run.counts[-1], run.counts[0] + np.dot(tallies, MOVES))
    assert sum(run.occupation) == pytest.approx(n * t_max, rel=1e-12)


def test_event_counts_match_their_compensators():
    """With constant decision probabilities every non-infection rate is
    linear in one occupation integral, so realized counts must sit within
    a few standard deviations of rate * integral."""
    p = ModelParams(beta=0.8, gamma=1.2, delta=0.6)
    spec = ConstantResponse(p_sp=0.4, p_ps=0.7)
    pop = AgentPopulation.from_fractions(500, 0.6, 0.3)
    run = simulate_ctmc(p, spec, pop, t_max=30.0, seed=5)
    occ_s, occ_i, occ_p = run.occupation
    checks = [
        (run.transition_counts["recover"], p.delta * occ_i),
        (run.transition_counts["protect"], p.gamma * 0.4 * occ_s),
        (run.transition_counts["unprotect"], p.gamma * 0.7 * occ_p),
    ]
    for observed, expected in checks:
        assert expected > 50  # the check only has teeth with real mass
        assert abs(observed - expected) < 4.0 * math.sqrt(expected)


def test_pure_recovery_drain():
    # no susceptibles and a response that never changes decisions:
    # the infected pool can only drain into P, one recovery per agent
    pop = AgentPopulation(n=20, counts=(0, 20, 0))
    run = simulate_ctmc(FIG, ConstantResponse(0.0, 0.0), pop, t_max=200.0, seed=3)
    assert tuple(run.counts[-1]) == (0, 0, 20)
    assert run.transition_counts == {
        "infect": 0,
        "protect": 0,
        "unprotect": 0,
        "recover": 20,
    }


def test_outbreak_size_grows_with_transmission_rate():
    spec = ConstantResponse(0.0, 1.0)  # nobody ever protects
    pop = AgentPopulation(n=200, counts=(199, 1, 0))
    totals = {}
    for beta in (0.5, 2.0):
        p = ModelParams(beta=beta, gamma=1.0, delta=1.0)
        infected = [
            simulate_ctmc(p, spec, pop, t_max=40.0, seed=(31, k))
            .transition_counts["infect"]
            for k in range(20)
        ]
        totals[beta] = float(np.mean(infected))
    assert totals[0.5] < 20 < totals[2.0]


# ----------------------------------------------------- against the ODE flow


def test_long_run_infection_hovers_at_threshold():
    # the deterministic flow pins I at i_star; the finite system should
    # fluctuate around it
    pop = AgentPopulation.from_fractions(10_000, 0.9, 0.1)
    run = simulate_ctmc(FIG, StepResponse(0.2), pop, t_max=50.0, seed=123)
    window = run.fractions[run.times >= 25.0, 1]
    assert float(window.mean()) == pytest.approx(0.2, abs=0.03)


def test_sup_error_definition():
    run = SimRun(
        seed=0, n=10, sample_dt=1.0,
        times=np.array([0.0, 1.0]),
        counts=np.array([[9, 1, 0], [5, 3, 2]]),
        final_t=1.0,
    )
    ref = np.array([[0.9, 0.1], [0.6, 0.2]])
    assert sup_error(run, ref) == pytest.approx(0.1)


def test_convergence_study_pairs_runs_and_shrinks_error():
    spec = SigmoidResponse(0.5, 0.05)
    rows = convergence_study(
        FIG, spec, State(0.95, 0.05), n_list=(50, 2000), runs_per_n=3,
        t_max=10.0, seed=17,
    )
    assert [r.n for r in rows] == [50, 2000]
    assert all(isinstance(r, StudyRow) and r.runs == 3 for r in rows)
    assert all(r.mean_error > 0.0 for r in rows)
    assert all(r.std_error >= 0.0 for r in rows)
    assert rows[1].mean_error < rows[0].mean_error


def test_convergence_study_admits_a_thousand_short_runs_per_n(monkeypatch):
    # 2,000 runs expect 75,000 clock events and cost 2,000 fixed run costs:
    # the study is admitted.  Each n replays one real run, so the test takes
    # milliseconds instead of the study's ~0.4 s.
    import epiresponse.ctmc as ctmc

    spec = StepResponse(0.2)
    runs = {}

    def replay(params, spec, pop0, t_max, seed, sample_dt):
        if pop0.n not in runs:
            runs[pop0.n] = simulate_ctmc(params, spec, pop0, t_max, seed, sample_dt)
        return runs[pop0.n]

    monkeypatch.setattr(ctmc, "simulate_ctmc", replay)
    rows = convergence_study(
        FIG, spec, State(0.9, 0.1), n_list=(10, 20), runs_per_n=1000,
        t_max=1.0, seed=1,
    )
    assert [(r.n, r.runs) for r in rows] == [(10, 1000), (20, 1000)]
    # 400,000 short runs are refused on their fixed cost alone (~80 s)
    with pytest.raises(ValueError, match="runs_per_n = 200000 runs"):
        convergence_study(
            FIG, spec, State(0.9, 0.1), n_list=(10, 20), runs_per_n=200000,
            t_max=1.0, seed=1,
        )


def test_the_response_table_is_charged_to_the_work_budget(monkeypatch):
    # n = 2e5 agents expect 50 clock events by t_max = 1e-4, but a table
    # of n + 1 counts is past the budget and is refused before it is built
    monkeypatch.setattr(sampling, "MAX_CLOCK_EVENTS", 10**5)

    def no_table(spec, n):
        raise AssertionError(f"a table of {n + 1} counts was built")

    monkeypatch.setattr(ctmc, "response_table", no_table)
    spec = SigmoidResponse(0.5, 0.05)
    pop = AgentPopulation.from_fractions(200_000, 0.9, 0.1)
    with pytest.raises(ValueError, match="n \\* \\(beta"):
        simulate_ctmc(FIG, spec, pop, 1e-4, seed=0)
    with pytest.raises(ValueError, match="runs_per_n = 1 runs"):
        convergence_study(
            FIG, spec, State(0.9, 0.1), n_list=[200_000], runs_per_n=1, t_max=1e-4
        )


def test_convergence_study_validates_inputs():
    with pytest.raises(ValueError):
        convergence_study(FIG, SigmoidResponse(0.5, 0.05), State(0.9, 0.1),
                          n_list=(100, 100))
    with pytest.raises(ValueError):
        convergence_study(FIG, SigmoidResponse(0.5, 0.05), State(0.9, 0.1),
                          n_list=(100, 200), runs_per_n=0)


# ------------------------------------------- against the plain uniformized loop


def plain_uniformized_run(params, spec, pop0, t_max, seed):
    """Every clock event of `sampling.clock_blocks` through the per-event
    tests, none dropped in advance: the jump logs by move, and the number
    of clock events."""
    resp = compile_response(spec)
    n, inv_n = pop0.n, 1.0 / pop0.n
    n_s, n_i, _ = pop0.counts
    total = params.beta + params.gamma + params.delta
    p_meet, p_meet_update = params.beta / total, (params.beta + params.gamma) / total
    logs, events = [[], [], [], []], 0
    rows = (
        (te, *u)
        for times, uu in clock_blocks(seed, n * total, t_max)
        for te, u in zip(times.tolist(), uu.tolist())
    )
    for te, u1, u2, u3 in rows:
        events += 1
        init = u2 * n
        if u1 < p_meet:
            if init < n_s and u3 * (n - 1) < n_i:
                n_s, n_i = n_s - 1, n_i + 1
                logs[0].append(te)
        elif u1 < p_meet_update:
            if init < n_s:
                if u3 < resp(n_i * inv_n)[0]:
                    n_s -= 1
                    logs[1].append(te)
            elif init >= n_s + n_i:
                if u3 < resp(n_i * inv_n)[1]:
                    n_s += 1
                    logs[2].append(te)
        elif n_s <= init < n_s + n_i:
            n_i -= 1
            logs[3].append(te)
    return logs, events


@st.composite
def steep_responses(draw, i0):
    """Ramps centred near the starting infected fraction, many of them
    narrower than a window's n // 40 agents."""
    centre = min(max(i0 + draw(st.floats(-0.03, 0.03)), 0.01), 0.95)
    width = draw(st.sampled_from([1e-12, 1e-6, 1e-4, 1e-3, 0.01, 0.05]))
    low, high = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    return draw(st.one_of(
        st.just(StepResponse(centre)),
        st.just(SigmoidResponse(centre, width)),
        st.builds(ConstantResponse, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        st.just(TabulatedResponse(
            (0.0, max(centre - width, 1e-9), centre, 1.0),
            (0.0, low, high, 1.0),
            (1.0, high, low, 0.0),
        )),
    ))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(2, 4000), seed=st.integers(0, 2**32))
def test_dropping_certain_no_ops_leaves_every_jump_in_place(data, n, seed):
    """The engine's jump logs, tallies, occupation integrals and grid
    counts equal those of the plain loop over the same clock stream, with
    (n >= 1000) and without certain no-ops dropped in numpy."""
    rates = data.draw(st.tuples(
        st.floats(0.05, 3.0), st.floats(0.0, 3.0), st.floats(0.05, 3.0)))
    params = ModelParams(*rates)
    s0 = data.draw(st.floats(0.0, 1.0))
    i0 = data.draw(st.floats(0.0, 1.0)) * (1.0 - s0)
    spec = data.draw(steep_responses(i0))
    pop0 = AgentPopulation.from_fractions(n, s0, i0)
    # at most ~40,000 clock events
    t_max = data.draw(st.floats(0.05, 2.0)) * min(1.0, 4.0 / sum(rates))
    with mock.patch.object(ctmc, "counts_on_grid", wraps=counts_on_grid) as grid_call:
        run = simulate_ctmc(params, spec, pop0, t_max, seed, sample_dt=t_max / 50)
    engine_logs = [log.tolist() for log in grid_call.call_args.args[2]]
    logs, drawn = plain_uniformized_run(params, spec, pop0, t_max, seed)
    assert engine_logs == logs
    assert run.transition_counts == dict(
        zip(("infect", "protect", "unprotect", "recover"), map(len, logs)))
    held = [len(log) * t_max - math.fsum(log) for log in logs]
    occupation = np.multiply(pop0.counts, t_max) + np.dot(held, MOVES)
    assert run.occupation == tuple(occupation.tolist())
    np.testing.assert_array_equal(
        run.counts, counts_on_grid(pop0.counts, MOVES, logs, run.times))
    assert run.clock_events == drawn
    assert sum(map(len, logs)) <= run.passed_events <= drawn


def test_most_certain_no_ops_never_reach_the_per_event_tests():
    # the benchmark's jump process: n = 10^4, t in [0, 50], ~1.25M clock
    # events of which ~17% are jumps
    pop = AgentPopulation.from_fractions(10_000, 0.99, 0.01)
    run = simulate_ctmc(FIG, SigmoidResponse(0.5, 0.001), pop, 50.0, seed=(0, 0))
    jumps = sum(run.transition_counts.values())
    assert run.clock_events > 1_200_000
    assert jumps <= run.passed_events <= 0.35 * run.clock_events


# ------------------------------------------------- a sigmoid that is a step


@pytest.mark.parametrize("n", [200, 2_000])  # the second drops no-ops in numpy
def test_a_sub_ulp_sigmoid_runs_as_its_step(n):
    # the ramp (1e-300) rounds away at i_star = 0.2: the table is the step's,
    # and the run crosses the jump hundreds of times (protect moves)
    pop = AgentPopulation.from_fractions(n, 0.6, 0.3)
    step, sigmoid = (
        simulate_ctmc(FIG, spec, pop, t_max=20.0, seed=3)
        for spec in (StepResponse(0.2), SigmoidResponse(0.2, 1e-300))
    )
    assert step.transition_counts["protect"] > n
    np.testing.assert_array_equal(sigmoid.counts, step.counts)
    assert sigmoid.transition_counts == step.transition_counts
    assert sigmoid.occupation == step.occupation
