from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epiresponse import ctmc, traces
from epiresponse.ctmc import AgentPopulation, simulate_ctmc
from epiresponse.model import ClassSpec, ModelParams, SigmoidResponse, StepResponse
from epiresponse.sampling import (
    MAX_GRID_POINTS,
    MOVES,
    clock_blocks,
    counts_on_grid,
    held_states,
    uniform_grid,
)
from epiresponse.traces import (
    Contact,
    ContactTrace,
    TraceExperiment,
    _class_moves,
    make_complete_mixing_trace,
    run_trace_experiment,
)


def naive_counts(initial, jumps, times, codes, grid):
    """Replay a time-sorted log row by row: a grid row takes the state
    just before the first jump later than its time."""
    state = list(initial)
    rows = []
    k = 0
    for g in grid:
        while k < len(times) and times[k] <= g:
            state = [x + d for x, d in zip(state, jumps[codes[k]])]
            k += 1
        rows.append(state)
    return np.array(rows, dtype=np.int64).reshape(len(grid), len(initial))


def by_code(times, codes, n_codes):
    """Split a time-sorted ``(time, code)`` log into one ascending list of
    times per code."""
    logs = [[] for _ in range(n_codes)]
    for t, k in zip(times, codes):
        logs[k].append(t)
    return logs


@st.composite
def logs(draw):
    dt = draw(st.sampled_from([0.5, 1.0, 60.0, 97.3]))
    grid = uniform_grid(draw(st.integers(0, 12)) * dt, dt)
    m = draw(st.integers(1, 4))
    n_codes = draw(st.integers(1, 5))
    jumps = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=m, max_size=m),
            min_size=n_codes,
            max_size=n_codes,
        )
    )
    initial = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    # exact grid times and repeats give ties; times past the grid end and
    # an empty log are drawn too
    when = st.one_of(
        st.sampled_from(grid.tolist()),
        st.floats(0.0, float(grid[-1]) + 2 * dt),
    )
    times = sorted(draw(st.lists(when, max_size=40)))
    codes = draw(
        st.lists(
            st.integers(0, n_codes - 1), min_size=len(times), max_size=len(times)
        )
    )
    return initial, jumps, times, codes, grid


@given(logs())
def test_counts_on_grid_equals_row_by_row_replay(log):
    initial, jumps, times, codes, grid = log
    expected = naive_counts(initial, jumps, times, codes, grid)
    got = counts_on_grid(initial, jumps, by_code(times, codes, len(jumps)), grid)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


def brute_counts(initial, jumps, logs, grid):
    """At each grid time, count in every log the jumps at or before it."""
    jumps = np.asarray(jumps, dtype=np.int64)
    rows = []
    for g in grid:
        state = np.array(initial, dtype=np.int64)
        for row, log in zip(jumps, logs):
            state += sum(1 for t in log if t <= g) * row
        rows.append(state)
    return np.array(rows)


JUMP_TABLES = {
    "ctmc": st.just(np.array(MOVES)),
    "traces": st.integers(1, 3).map(_class_moves),
    "random": st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1, max_size=6
        )
    ).map(np.array),
}


@st.composite
def grid_logs(draw, table, many):
    """Ascending logs on a uniform grid, with no more jumps than grid points
    (``many`` False) or more: times on grid points, between them, before
    the first and past the last, repeated, and logs left empty."""
    jumps = draw(JUMP_TABLES[table])
    dt = draw(st.sampled_from([0.5, 1.0, 60.0, 97.3]))
    grid = uniform_grid(draw(st.integers(0, 15)) * dt, dt)
    lo, hi = (grid.size + 1, grid.size + 40) if many else (0, grid.size)
    total = draw(st.integers(lo, hi))
    when = st.one_of(
        st.sampled_from(grid.tolist()),
        st.floats(-dt, float(grid[-1]) + 2 * dt),
    )
    logs = [[] for _ in jumps]
    for _ in range(total):
        logs[draw(st.integers(0, len(jumps) - 1))].append(draw(when))
    m = jumps.shape[1]
    initial = draw(st.lists(st.integers(-50, 50), min_size=m, max_size=m))
    return initial, jumps, [sorted(log) for log in logs], grid


@pytest.mark.parametrize("many", [False, True], ids=["few_jumps", "many_jumps"])
@pytest.mark.parametrize("table", sorted(JUMP_TABLES))
@given(data=st.data())
def test_counts_on_grid_counts_every_jump_at_or_before_each_grid_time(table, many, data):
    initial, jumps, logs, grid = data.draw(grid_logs(table, many))
    got = counts_on_grid(initial, jumps, [array("d", log) for log in logs], grid)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, brute_counts(initial, jumps, logs, grid))


@pytest.mark.parametrize("many", [False, True], ids=["few_jumps", "many_jumps"])
@pytest.mark.parametrize("table", sorted(JUMP_TABLES))
@given(data=st.data())
def test_held_states_repeat_to_the_counts_on_the_grid(table, many, data):
    initial, jumps, logs, grid = data.draw(grid_logs(table, many))
    logs = [array("d", log) for log in logs]
    states, held = held_states(initial, jumps, logs, grid)
    assert states.dtype == np.int64
    assert held.sum() == grid.size and held.min() >= 0
    # one state a jump or one a grid row, whichever is fewer
    n_jumps = sum(len(log) for log in logs)
    assert len(states) == len(held) <= min(n_jumps, grid.size) + 1
    got = np.repeat(states, held, axis=0)
    np.testing.assert_array_equal(got, counts_on_grid(initial, jumps, logs, grid))
    np.testing.assert_array_equal(got, brute_counts(initial, jumps, logs, grid))


def simulate(n):
    pop = AgentPopulation.from_fractions(n, 0.6, 0.2)
    spec = SigmoidResponse(0.3, 0.1)
    return simulate_ctmc(ModelParams(1.0, 1.0, 0.5), spec, pop, 5.0, seed=7)


def replay(n_classes):
    trace = make_complete_mixing_trace(10, 0.05, 200.0, seed=3)
    ids = trace.node_ids
    exp = TraceExperiment(
        gamma=0.05,
        delta=0.02,
        classes=(ClassSpec(0.5, SigmoidResponse(0.2, 0.1)),
                 ClassSpec(0.5, StepResponse(0.4)))[:n_classes],
        initial={nid: "I" if nid == ids[0] else "S" for nid in ids},
        class_assignment={nid: k % n_classes for k, nid in enumerate(ids)},
        runs=2,
        grid_dt=5.0,
    )
    return run_trace_experiment(trace, exp, seed=1)


# n < 1000 passes every event to the per-event tests, n >= 1000 drops
# certain no-ops in numpy first; trace replay reads the held states
ENGINE_RUNS = {
    "ctmc-n400": (ctmc, counts_on_grid, lambda: simulate(400)),
    "ctmc-n2000": (ctmc, counts_on_grid, lambda: simulate(2000)),
    "trace-one-class": (traces, held_states, lambda: replay(1)),
    "trace-two-class": (traces, held_states, lambda: replay(2)),
}


@pytest.mark.parametrize("case", sorted(ENGINE_RUNS))
def test_every_engine_hands_the_sampler_ascending_logs(case):
    module, sampler, run = ENGINE_RUNS[case]
    with mock.patch.object(module, sampler.__name__, wraps=sampler) as grid_call:
        run()
    assert grid_call.call_count >= 1
    for call in grid_call.call_args_list:
        logs = [log.tolist() for log in call.args[2]]
        assert sum(len(log) > 1 for log in logs) >= 2
        assert all(log == sorted(log) for log in logs)


def test_counts_on_grid_edges():
    grid = uniform_grid(3.0, 1.0)
    jumps = [[-1, 1], [1, -1]]
    empty = counts_on_grid([4, 0], jumps, [[], []], grid)
    np.testing.assert_array_equal(empty, [[4, 0]] * 4)
    # a jump on a grid time shows in that row; one past the end never does
    got = counts_on_grid([4, 0], jumps, [[1.0, 2.5], [3.5]], grid)
    np.testing.assert_array_equal(got, [[4, 0], [3, 1], [3, 1], [2, 2]])
    # an empty log holds the initial state over the whole grid; the state
    # after a jump past the end is held by no row
    states, held = held_states([4, 0], jumps, [[], []], grid)
    np.testing.assert_array_equal(states, [[4, 0]])
    np.testing.assert_array_equal(held, [4])
    states, held = held_states([4, 0], jumps, [[1.0, 2.5], [3.5]], grid)
    np.testing.assert_array_equal(states, [[4, 0], [3, 1], [2, 2], [3, 1]])
    np.testing.assert_array_equal(held, [1, 2, 1, 0])


def test_uniform_grid_keeps_an_end_within_round_off():
    np.testing.assert_array_equal(uniform_grid(5.0, 0.5), np.arange(11) * 0.5)
    # 0.3 / 0.1 = 2.9999999999999996: the end point is still sampled
    assert uniform_grid(0.3, 0.1).size == 4
    assert uniform_grid(0.29, 0.1).size == 3


def test_uniform_grid_refuses_a_grid_past_the_cap():
    assert uniform_grid(1.0, 1.0 / (MAX_GRID_POINTS - 1)).size == MAX_GRID_POINTS
    for t_end, dt in ((1.0, 1.0 / MAX_GRID_POINTS), (50.0, 1e-9), (1e308, 1e-308)):
        with pytest.raises(ValueError, match="cap"):
            uniform_grid(t_end, dt)


def test_trace_row_on_a_contact_time_shows_the_infection():
    trace = ContactTrace.from_contacts([Contact(0, 1, 120.0, 120.0), Contact(1, 2, 300.0, 300.0)])
    exp = TraceExperiment(
        gamma=0.0,
        delta=0.0,
        classes=(ClassSpec(1.0, StepResponse(0.5)),),
        initial={0: "I", 1: "S", 2: "S"},
        runs=1,
        transient_cut=0.0,
        grid_dt=60.0,
    )
    res = run_trace_experiment(trace, exp, seed=0)
    np.testing.assert_array_equal(res.times, [0.0, 60.0, 120.0, 180.0, 240.0, 300.0])
    infected = res.mean_fractions[:, 0, 1] * 3
    np.testing.assert_allclose(infected, [1, 1, 2, 2, 2, 3], rtol=1e-15)
    np.testing.assert_array_equal(res.mean_fractions[:, 0], res.mean_fractions[:, 1])


# ------------------------------------------------------------------- clock


def clock_rows(seed, rate, t_end):
    """The events of `clock_blocks` as ``(t, u1, u2, u3)`` rows, in order."""
    return [
        (t, *u) for times, uu in clock_blocks(seed, rate, t_end)
        for t, u in zip(times.tolist(), uu.tolist())
    ]


@pytest.mark.parametrize("rate, t_end", [(3.0, 5.0), (0.01, 2.0), (1e5, 1.5)])
def test_clock_events_are_sorted_within_the_span(rate, t_end):
    # the last case expects 150,000 events: three blocks of 65,536
    count, prev = 0, 0.0
    for t, *uu in clock_rows((4, 2), rate, t_end):
        assert prev <= t <= t_end
        assert all(0.0 <= u < 1.0 for u in uu)
        count, prev = count + 1, t
    expected = rate * t_end
    assert abs(count - expected) <= 5 * expected**0.5 + 1


def test_clock_events_at_rate_zero_draw_nothing(monkeypatch):
    def no_generator(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert list(clock_blocks(1, 0.0, 10.0)) == []


def test_clock_events_repeat_for_a_seed():
    a = clock_rows((7, 0), 40.0, 3.0)
    assert a == clock_rows((7, 0), 40.0, 3.0)
    assert a != clock_rows((7, 1), 40.0, 3.0)
