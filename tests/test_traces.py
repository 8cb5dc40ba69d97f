import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from bisect import bisect_right
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epiresponse
from epiresponse.model import (
    ClassSpec,
    ConstantResponse,
    SigmoidResponse,
    StepResponse,
    TabulatedResponse,
    compile_response,
)
from epiresponse import traces
from epiresponse.sampling import MOVES, clock_blocks, response_table
from epiresponse.traces import (
    Contact,
    ContactTrace,
    EmptyTraceError,
    ParseError,
    TraceExperiment,
    make_complete_mixing_trace,
    parse_trace,
    run_trace_experiment,
)

DATA = Path(__file__).parent / "data"


def five_node():
    return parse_trace(DATA.joinpath("five_node.csv").read_text())


# ------------------------------------------------------------------ parsing


def test_parse_fixture():
    trace = five_node()
    assert trace.node_ids == (0, 1, 2, 3, 4)
    assert trace.n_nodes == 5
    assert len(trace.contacts) == 5
    assert trace.duration == 2410.0
    assert trace.contacts[0] == Contact(0, 1, 0.0, 10.0)


def test_parse_sorts_and_skips_noise():
    text = "\n".join(
        [
            "# header comment",
            "",
            "3,4,50,60",
            "1,2,5,6   ",
            "  # another comment",
            "1,3,5,5",
        ]
    )
    trace = parse_trace(text)
    starts = [c.t_start for c in trace.contacts]
    assert starts == sorted(starts)
    # ties on t_start break by (t_end, a, b)
    assert trace.contacts[0] == Contact(1, 3, 5.0, 5.0)
    assert trace.contacts[1] == Contact(1, 2, 5.0, 6.0)


def test_from_contacts_sorts_the_records_it_is_given():
    late, early = Contact(1, 2, 5.0, 6.0), Contact(0, 1, 1.0, 1.0)
    trace = ContactTrace.from_contacts([late, (0, 2, 3.0, 4.0), early])
    assert trace.contacts[0] is early and trace.contacts[2] is late
    # a plain tuple becomes a record
    assert type(trace.contacts[1]) is Contact
    assert trace.contacts[1] == Contact(0, 2, 3.0, 4.0)


def test_parse_accepts_iterables_of_lines():
    trace = parse_trace(iter(["0,1,1.5,2.5", "1,2,0,1"]))
    assert trace.duration == 2.5
    assert trace.contacts[0].t_start == 0.0


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("0,1,2", "expected 4 fields"),
        ("a,1,0,1", "integers"),
        ("0,1,x,1", "numbers"),
        ("2,2,0,1", "self-contact"),
        ("0,1,-5,1", "negative"),
        ("0,1,5,4", "ends before"),
        ("0,1,inf,inf", "finite"),
    ],
)
def test_parse_rejects_malformed_rows(row, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_trace(["# comment", "0,1,0,1", row])
    assert exc.value.line == 3


def test_parse_empty_trace():
    with pytest.raises(EmptyTraceError):
        parse_trace("# nothing but comments\n\n")


def test_trace_validation():
    with pytest.raises(ValueError):
        ContactTrace(node_ids=(0, 1), contacts=(), duration=10.0)


def test_a_trace_refuses_times_that_are_not_finite():
    nan, inf = float("nan"), float("inf")
    good = [Contact(0, 1, 1.0, 2.0), Contact(1, 2, 3.0, 3.0)]
    for bad, where in ((Contact(0, 2, nan, nan), 0), (Contact(0, 2, nan, 4.0), 1),
                       (Contact(0, 2, 1.5, inf), 1)):
        contacts = (*good[:where], bad, *good[where:])
        with pytest.raises(ValueError, match=r"contact Contact\(a=0, b=2.*not finite"):
            ContactTrace(node_ids=(0, 1, 2), contacts=contacts, duration=5.0)
    # a NaN start would sort anywhere and pass every ordering check
    with pytest.raises(ValueError, match="not finite"):
        ContactTrace.from_contacts([(1, 2, 1.0, 5.0), (0, 1, nan, nan), (0, 2, 3.0, 3.0)])
    trace = ContactTrace.from_contacts(good)
    for duration in (nan, inf):
        with pytest.raises(ValueError, match="duration .* not finite"):
            dataclasses.replace(trace, duration=duration)


# --------------------------------------------------------- synthetic traces


def test_complete_mixing_trace_is_deterministic():
    a = make_complete_mixing_trace(6, 0.05, 200.0, seed=9)
    b = make_complete_mixing_trace(6, 0.05, 200.0, seed=9)
    assert a.contacts == b.contacts
    c = make_complete_mixing_trace(6, 0.05, 200.0, seed=10)
    assert c.contacts != a.contacts


def test_complete_mixing_trace_structure():
    trace = make_complete_mixing_trace(6, 0.2, 100.0, seed=4)
    assert trace.node_ids == tuple(range(6))
    assert trace.duration == 100.0  # nominal span, not the last contact
    assert all(c.t_start == c.t_end for c in trace.contacts)
    assert all(0.0 < c.t_start <= 100.0 for c in trace.contacts)
    # 15 pairs * rate 0.2 * 100 s: the realized count is Poisson(300)
    assert 230 <= len(trace.contacts) <= 370


def test_complete_mixing_trace_validation():
    with pytest.raises(ValueError):
        make_complete_mixing_trace(1, 0.1, 10.0, seed=0)
    with pytest.raises(ValueError):
        make_complete_mixing_trace(5, 0.0, 10.0, seed=0)
    with pytest.raises(EmptyTraceError):
        make_complete_mixing_trace(2, 1e-9, 1.0, seed=0)


# ---------------------------------------------------------------- experiment


def one_class(**kw):
    defaults = dict(
        gamma=0.0,
        delta=0.0,
        classes=(ClassSpec(1.0, StepResponse(0.5)),),
        initial={nid: "S" for nid in range(5)},
        runs=1,
    )
    defaults.update(kw)
    return TraceExperiment(**defaults)


def test_experiment_validation():
    with pytest.raises(ValueError):
        one_class(gamma=-1.0)
    with pytest.raises(ValueError):
        one_class(runs=0)
    for dt in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="grid_dt"):
            one_class(grid_dt=dt)
    with pytest.raises(ValueError):
        one_class(classes=())
    with pytest.raises(ValueError):
        one_class(initial={0: "S", 1: "X", 2: "S", 3: "S", 4: "S"})
    for cut in (-5.0, float("nan")):
        with pytest.raises(ValueError, match="transient_cut"):
            one_class(transient_cut=cut)


def test_initial_assignment_must_cover_all_nodes():
    trace = five_node()
    exp = one_class(initial={0: "I"})
    with pytest.raises(ValueError, match="missing nodes"):
        run_trace_experiment(trace, exp, seed=0)
    exp = one_class(initial={nid: "S" for nid in range(6)})
    with pytest.raises(ValueError, match="unknown nodes"):
        run_trace_experiment(trace, exp, seed=0)


def test_multi_class_requires_assignment():
    trace = five_node()
    classes = (ClassSpec(1.0, StepResponse(0.5)), ClassSpec(1.0, StepResponse(0.9)))
    exp = one_class(classes=classes)
    with pytest.raises(ValueError, match="class_assignment"):
        run_trace_experiment(trace, exp, seed=0)
    exp = one_class(
        classes=classes,
        class_assignment={0: 0, 1: 0, 2: 0, 3: 0, 4: 5},
    )
    with pytest.raises(ValueError, match="out of range"):
        run_trace_experiment(trace, exp, seed=0)
    exp = one_class(
        classes=classes,
        class_assignment={nid: 0 for nid in range(5)},
    )
    with pytest.raises(ValueError, match="at least one member"):
        run_trace_experiment(trace, exp, seed=0)


def test_a_fractional_class_index_is_refused_by_its_node():
    classes = (ClassSpec(1.0, StepResponse(0.5)), ClassSpec(1.0, StepResponse(0.9)))
    for bad in (0.5, float("nan"), "1"):
        exp = one_class(
            classes=classes, class_assignment={0: 0, 1: 1, 2: bad, 3: 0, 4: 1}
        )
        with pytest.raises(ValueError, match="of node 2 is not an integer"):
            run_trace_experiment(five_node(), exp, seed=0)
    # an integer value of another type is the class it names
    whole = one_class(
        classes=classes, class_assignment={0: 0, 1: 1.0, 2: np.int64(1), 3: 0, 4: 1}
    )
    res = run_trace_experiment(five_node(), whole, seed=0)
    assert res.class_of.tolist() == [0, 1, 1, 0, 1]


def test_a_whole_float_run_count_is_stored_as_an_int():
    exp = one_class(runs=2.0)
    assert type(exp.runs) is int and exp.runs == 2
    res = run_trace_experiment(five_node(), exp, seed=0)
    assert res.runs == 2 and res.per_run_avg.shape[0] == 2
    for bad in (2.5, float("nan"), float("inf"), "2"):
        with pytest.raises(ValueError, match="runs"):
            one_class(runs=bad)


# ---------------------------------------------------- frozen-clock replay


def reachable(trace, seeds):
    """Forward scan: who gets infected when nothing recovers or protects."""
    infected = set(seeds)
    for c in trace.contacts:
        if c.a in infected and c.b not in infected:
            infected.add(c.b)
        elif c.b in infected and c.a not in infected:
            infected.add(c.a)
    return frozenset(infected)


def test_fixture_reachability_from_first_node():
    trace = five_node()
    initial = {nid: "S" for nid in trace.node_ids}
    initial[0] = "I"
    res = run_trace_experiment(trace, one_class(initial=initial), seed=0)
    assert res.final_infected(0) == frozenset({0, 1, 2, 3, 4})


def test_fixture_reachability_respects_contact_order():
    # node 3's only contact partner is 2, whose other contact already
    # happened: the chain stops there
    trace = five_node()
    initial = {nid: "S" for nid in trace.node_ids}
    initial[3] = "I"
    res = run_trace_experiment(trace, one_class(initial=initial), seed=0)
    assert res.final_infected(0) == frozenset({2, 3})


def test_random_traces_match_reachability_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(5, 40))
        contacts = []
        for _ in range(m):
            a, b = rng.choice(n, size=2, replace=False)
            t = float(rng.uniform(0.0, 3600.0))
            contacts.append(Contact(int(a), int(b), t, t + 1.0))
        trace = ContactTrace.from_contacts(contacts)
        seeds = {int(x) for x in rng.choice(trace.node_ids, size=2)}
        initial = {nid: ("I" if nid in seeds else "S") for nid in trace.node_ids}
        exp = TraceExperiment(
            gamma=0.0,
            delta=0.0,
            classes=(ClassSpec(1.0, StepResponse(0.5)),),
            initial=initial,
            runs=1,
        )
        res = run_trace_experiment(trace, exp, seed=1)
        assert res.final_infected(0) == reachable(trace, seeds)


# ------------------------------------------------------- response tables


@pytest.mark.parametrize(
    "spec, n, on",
    [
        (StepResponse(0.25), 20, 0.25),  # k = 5 lands on the threshold
        (SigmoidResponse(0.5, 0.2), 20, 0.4),  # on the ramp's lower end
        (TabulatedResponse((0.0, 0.2, 0.25, 1.0), (0.0, 0.0, 1.0, 1.0),
                           (1.0, 1.0, 0.0, 0.0)), 20, 0.2),  # on a knot
        (ConstantResponse(0.3, 0.6), 41, 0.0),
        (SigmoidResponse(0.1, 0.001), 41, 0.0),
    ],
)
def test_response_table_holds_the_compiled_response_at_every_count(spec, n, on):
    p_sp, p_ps = response_table(spec, n)
    resp, inv_n = compile_response(spec), 1.0 / n
    assert len(p_sp) == len(p_ps) == n + 1
    for k in range(n + 1):
        assert (p_sp[k], p_ps[k]) == resp(k * inv_n)
    assert on in [k * inv_n for k in range(n + 1)]
    if isinstance(spec, StepResponse):
        k = round(on * n)
        assert (p_sp[k], p_ps[k]) == (0.0, 1.0)  # the canonical selection


# ------------------------------------------- against the plain per-event replay


CODES = {"S": 0, "I": 1, "P": 2}


def plain_replay(trace, exp, seed, run, clock=clock_blocks):
    """Run ``run`` of ``exp`` event by event: every row of ``clock`` (by
    default `sampling.clock_blocks`), after the contacts that start at or
    before it, with the class response called at the event.  Returns the
    final states (0=S, 1=I, 2=P) and every transition as (time, agent,
    state)."""
    nodes = list(trace.node_ids)
    n, inv_n = len(nodes), 1.0 / len(nodes)
    index = {nid: j for j, nid in enumerate(nodes)}
    state = [CODES[exp.initial[nid]] for nid in nodes]
    assign = exp.class_assignment or {}
    resp = [compile_response(exp.classes[assign.get(nid, 0)].response) for nid in nodes]
    rate = exp.gamma + exp.delta
    p_update = exp.gamma / rate if rate > 0.0 else 0.0
    contacts = [(c.t_start, index[c.a], index[c.b]) for c in trace.contacts]
    rows = [
        (t, *u)
        for times, uu in clock((seed, run), n * rate, trace.duration)
        for t, u in zip(times.tolist(), uu.tolist())
    ]
    moves, ci = [], 0
    for tk, u_type, u_agent, u_act in rows + [(math.inf, 0.0, 0.0, 0.0)]:
        while ci < len(contacts) and contacts[ci][0] <= tk:
            t, a, b = contacts[ci]
            if sorted((state[a], state[b])) == [0, 1]:
                j = a if state[a] == 0 else b
                state[j] = 1
                moves.append((t, j, 1))
            ci += 1
        if tk == math.inf:
            break
        j = int(u_agent * n)
        p_sp, p_ps = resp[j](state.count(1) * inv_n)
        if u_type >= p_update:
            new = 2 if state[j] == 1 else state[j]
        elif state[j] == 0:
            new = 2 if u_act < p_sp else 0
        else:
            new = 0 if state[j] == 2 and u_act < p_ps else state[j]
        if new != state[j]:
            state[j] = new
            moves.append((tk, j, new))
    return state, moves


@st.composite
def replays(draw):
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    # shared start times make contacts tie with each other
    start = st.sampled_from([0.0, 10.0, 60.0, 61.5]) | st.floats(0.0, 120.0)
    contacts = draw(st.lists(st.tuples(pair, start), min_size=1, max_size=30))
    trace = ContactTrace.from_contacts([(a, b, t, t) for (a, b), t in contacts])
    ids = trace.node_ids
    rate = st.sampled_from([0.0, 0.02]) | st.floats(0.0, 0.5)
    response = st.sampled_from([0.2, 0.25, 0.5, 1.0]) | st.floats(0.01, 1.0)
    classes = [ClassSpec(1.0, StepResponse(draw(response)))]
    assignment = None
    if len(ids) > 2 and draw(st.booleans()):
        classes.append(ClassSpec(1.0, SigmoidResponse(draw(response), 0.3)))
        inner = [draw(st.integers(0, 1)) for _ in ids[1:-1]]
        assignment = dict(zip(ids, [0, *inner, 1]))
    exp = TraceExperiment(
        gamma=draw(rate),
        delta=draw(rate),
        classes=tuple(classes),
        initial={nid: draw(st.sampled_from("SIP")) for nid in ids},
        class_assignment=assignment,
        runs=draw(st.integers(1, 2)),
        transient_cut=0.0,
        grid_dt=7.0,
    )
    return trace, exp, draw(st.integers(0, 1000))


@settings(max_examples=150, deadline=None)
@given(case=replays())
def test_replay_matches_the_plain_per_event_replay(case):
    """Same stream, same transitions: the final states match exactly, and
    each run's time-averaged fractions, aggregate and per class, are the
    exact means of the plain replay's counts."""
    trace, exp, seed = case
    res = run_trace_experiment(trace, exp, seed)
    ids = trace.node_ids
    assignment = exp.class_assignment or dict.fromkeys(ids, 0)
    # the aggregate, then each class: its members' positions in node order
    members = [list(range(len(ids)))] + [
        [j for j, nid in enumerate(ids) if assignment[nid] == c]
        for c in range(len(exp.classes))
    ]
    for run in range(exp.runs):
        state, moves = plain_replay(trace, exp, seed, run)
        assert res.final_states[run].tolist() == state
        current = [CODES[exp.initial[nid]] for nid in ids]
        move_times, done, counts = [m[0] for m in moves], 0, []
        for t in res.times:
            stop = bisect_right(move_times, t)
            for _, j, new in moves[done:stop]:
                current[j] = new
            done = stop
            counts.append(
                [[sum(current[j] == s for j in group) for s in range(3)] for group in members]
            )
        sizes = np.array([len(group) for group in members])[:, None]
        want = np.mean(np.array(counts) / sizes, axis=0)
        np.testing.assert_allclose(res.per_run_avg[run], want, rtol=0, atol=1e-12)
        # the exact time-weighted mean: integer totals, divided once
        exact = np.sum(counts, axis=0) / (len(res.times) * sizes)
        np.testing.assert_array_equal(res.per_run_avg[run], exact)


def plain_run(trace, exp, seed, run, grid, clock=clock_blocks):
    """`plain_replay`'s final states and the run's exact time-averaged (S, I,
    P) fractions over ``grid``, aggregate and per class."""
    state, moves = plain_replay(trace, exp, seed, run, clock)
    ids = trace.node_ids
    assignment = exp.class_assignment or dict.fromkeys(ids, 0)
    groups = [np.arange(len(ids))] + [
        np.array([j for j, nid in enumerate(ids) if assignment[nid] == c])
        for c in range(len(exp.classes))
    ]
    current = np.array([CODES[exp.initial[nid]] for nid in ids])
    move_times, done = [m[0] for m in moves], 0
    totals = np.zeros((len(groups), 3), dtype=np.int64)
    for t in grid:
        stop = bisect_right(move_times, t)
        for _, j, new in moves[done:stop]:
            current[j] = new
        done = stop
        totals += [np.bincount(current[g], minlength=3) for g in groups]
    sizes = np.array([len(g) for g in groups])[:, None]
    return state, totals / (len(grid) * sizes)


def recut(sizes):
    """`traces.clock_blocks` with each block cut again into pieces of the
    sizes ``sizes`` names in turn (0 among them)."""
    turn = cycle(sizes)

    def blocks(seed, rate, t_end):
        for times, uu in clock_blocks(seed, rate, t_end):
            start = 0
            while start < times.size:
                stop = start + next(turn)
                yield times[start:stop], uu[start:stop]
                start = stop

    return blocks


@settings(max_examples=60, deadline=None)
@given(case=replays(), sizes=st.lists(st.integers(0, 3) | st.integers(0, 40), min_size=1,
                                      max_size=8).filter(any))
def test_replay_does_not_depend_on_where_the_clock_blocks_end(case, sizes):
    trace, exp, seed = case
    whole = run_trace_experiment(trace, exp, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "clock_blocks", recut(sizes))
        cut = run_trace_experiment(trace, exp, seed)
    for f in dataclasses.fields(whole):
        np.testing.assert_array_equal(getattr(cut, f.name), getattr(whole, f.name), f.name)


def on_contact_starts(trace):
    """A clock with an event at every contact start time and one between each
    two, whatever the rate: contact and clock event tie at each start."""
    starts = sorted({c.t_start for c in trace.contacts})
    times = np.array(sorted(starts + [(a + b) / 2 for a, b in zip(starts, starts[1:])]))

    def blocks(seed, rate, t_end):
        yield times, np.random.default_rng(seed).random((times.size, 3))

    return blocks


@settings(max_examples=60, deadline=None)
@given(case=replays())
def test_a_contact_goes_before_a_clock_event_at_its_start_time(case):
    trace, exp, seed = case
    clock = on_contact_starts(trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "clock_blocks", clock)
        res = run_trace_experiment(trace, exp, seed)
    for run in range(exp.runs):
        state, avg = plain_run(trace, exp, seed, run, res.times, clock)
        assert res.final_states[run].tolist() == state
        np.testing.assert_array_equal(res.per_run_avg[run], avg)


def test_a_contact_tied_with_a_recovery_infects_first():
    # 0 infected meets 1 at t = 10, when the clock recovers 0 (u_type 0.9
    # is past p_update 0.5; agent int(0.1 * 2) = 0)
    trace = ContactTrace.from_contacts([(0, 1, 10.0, 10.0)])

    def clock(seed, rate, t_end):
        yield np.array([10.0]), np.array([[0.9, 0.1, 0.5]])

    exp = one_class(gamma=1.0, delta=1.0, initial={0: "I", 1: "S"}, transient_cut=0.0,
                    grid_dt=5.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "clock_blocks", clock)
        res = run_trace_experiment(trace, exp, seed=0)
    assert res.final_states[0].tolist() == [2, 1]
    assert plain_replay(trace, exp, 0, 0, clock)[0] == [2, 1]


def test_a_run_of_more_than_one_block_matches_the_plain_replay():
    # 8 agents * 5.005 / s * 2000 s: ~80k clock events, two blocks a run
    trace = make_complete_mixing_trace(8, 0.01, 2000.0, seed=2)
    ids = trace.node_ids
    exp = TraceExperiment(
        gamma=5.0,
        delta=0.005,
        classes=(ClassSpec(0.5, StepResponse(0.3)), ClassSpec(0.5, SigmoidResponse(0.6, 0.2))),
        initial={nid: "I" if nid < 2 else "S" for nid in ids},
        class_assignment={nid: nid % 2 for nid in ids},
        runs=1,
        grid_dt=10.0,
    )
    res = run_trace_experiment(trace, exp, seed=4)
    blocks = [times.size for times, _ in clock_blocks((4, 0), 8 * 5.005, 2000.0)]
    assert len(blocks) > 1 and sum(blocks) > 65_536
    state, avg = plain_run(trace, exp, 4, 0, res.times)
    assert res.final_states[0].tolist() == state
    np.testing.assert_array_equal(res.per_run_avg[0], avg)


def test_counters_add_up_to_the_final_states():
    trace = make_complete_mixing_trace(10, 0.05, 200.0, seed=3)
    ids = trace.node_ids
    exp = TraceExperiment(
        gamma=0.05,
        delta=0.02,
        classes=(ClassSpec(0.5, SigmoidResponse(0.2, 0.1)), ClassSpec(0.5, StepResponse(0.4))),
        initial={nid: "SIP"[nid % 3] for nid in ids},
        class_assignment={nid: nid % 2 for nid in ids},
        runs=4,
    )
    res = run_trace_experiment(trace, exp, seed=11)
    initial = np.bincount([CODES[exp.initial[nid]] for nid in ids], minlength=3)
    final = np.bincount(res.final_states.ravel(), minlength=3)
    assert res.transitions.shape == (len(MOVES),) and res.transitions.sum() > 0
    np.testing.assert_array_equal(exp.runs * initial + res.transitions @ MOVES, final)
    drawn = [
        times.size
        for k in range(exp.runs)
        for times, _ in clock_blocks((11, k), 10 * 0.07, trace.duration)
    ]
    assert res.clock_events == sum(drawn) > 0


# Taken before the per-run tail moved onto the held states: both classes
# counts, a cut at 0, at the default 10% and past the span's midpoint;
# some runs make more jumps than the grid's 41 points, some fewer.
PINNED_DIGESTS = {
    (1, None): "72793651ce96b4d489045c3df5b1c3d29db76e8164ffe4f129c7c75d0c85d44c",
    (1, 0.0): "5b476b79b2f858ef7b6b568345828aed13feeb7edeb653b14718f1aacff87185",
    (1, 117.5): "b5c4274f672561a2a054e54c15d57765b33fc035625ca07db90a7872faae70e8",
    (2, None): "466c16b6f617ecb45f0fd8b129d0a4d884c614e1a16f8eb12c52c00c8de39a42",
    (2, 0.0): "2c6902fc683754e22a2ac9fe695617d05d1e60a08af697abb2c78083a542e22b",
    (2, 117.5): "237e4b928e7d9713288427b4f5329505d4935828f90dbb376241d28e6592fcc4",
}


@pytest.mark.parametrize("n_classes, cut", sorted(PINNED_DIGESTS, key=repr))
def test_replay_outputs_match_pinned_digests(n_classes, cut):
    trace = make_complete_mixing_trace(10, 0.05, 200.0, seed=3)
    ids = trace.node_ids
    exp = TraceExperiment(
        gamma=0.05,
        delta=0.02,
        classes=(ClassSpec(0.5, SigmoidResponse(0.2, 0.1)),
                 ClassSpec(0.5, StepResponse(0.4)))[:n_classes],
        initial={nid: "I" if nid < 2 else "S" for nid in ids},
        class_assignment={nid: k % n_classes for k, nid in enumerate(ids)},
        runs=3,
        transient_cut=cut,
        grid_dt=5.0,
    )
    res = run_trace_experiment(trace, exp, seed=11)
    digest = hashlib.sha256()
    for values in (res.times, res.mean_fractions, res.final_states):
        digest.update(values.tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[n_classes, cut]


# ------------------------------------------------------------- full dynamics


def full_exp(trace, runs=3, **kw):
    initial = {nid: "S" for nid in trace.node_ids}
    initial[trace.node_ids[0]] = "I"
    defaults = dict(
        gamma=1 / 900.0,
        delta=1 / 1800.0,
        classes=(ClassSpec(1.0, SigmoidResponse(0.5, 0.01)),),
        initial=initial,
        runs=runs,
        grid_dt=30.0,
    )
    defaults.update(kw)
    return TraceExperiment(**defaults)


def test_fractions_conserved_and_grid_shapes():
    trace = make_complete_mixing_trace(12, 1 / 600.0, 7200.0, seed=3)
    res = run_trace_experiment(trace, full_exp(trace), seed=5)
    k_total = int(7200.0 / 30.0) + 1
    assert res.transient_cut == pytest.approx(720.0)  # default: 10% of span
    assert len(res.times) < k_total
    assert res.times[0] >= res.transient_cut
    assert np.all(np.diff(res.times) == 30.0)
    assert res.mean_fractions.shape == (len(res.times), 2, 3)
    # S + I + P = 1 for the aggregate and within the single class
    assert np.allclose(res.mean_fractions.sum(axis=2), 1.0)
    assert np.allclose(res.per_run_avg.sum(axis=2), 1.0)
    assert res.final_states.shape == (3, 12)
    assert set(np.unique(res.final_states)) <= {0, 1, 2}


def test_experiment_is_reproducible_and_runs_are_paired():
    trace = make_complete_mixing_trace(10, 1 / 600.0, 3600.0, seed=8)
    a = run_trace_experiment(trace, full_exp(trace, runs=2), seed=21)
    b = run_trace_experiment(trace, full_exp(trace, runs=2), seed=21)
    assert np.array_equal(a.mean_fractions, b.mean_fractions)
    assert np.array_equal(a.final_states, b.final_states)
    # run k depends only on (seed, k): a 1-run replay reproduces run 0
    solo = run_trace_experiment(trace, full_exp(trace, runs=1), seed=21)
    assert np.array_equal(solo.per_run_avg[0], a.per_run_avg[0])
    assert np.array_equal(solo.final_states[0], a.final_states[0])


def test_protection_drains_after_extinction():
    # delta huge, gamma moderate: the epidemic dies quickly, after which
    # p_PS(0) = 1 pulls every protected agent back to susceptible
    trace = make_complete_mixing_trace(8, 1 / 1200.0, 4.0 * 86400.0, seed=13)
    exp = full_exp(
        trace,
        runs=4,
        gamma=1 / 3600.0,
        delta=1 / 600.0,
        classes=(ClassSpec(1.0, StepResponse(0.05)),),
        grid_dt=600.0,
    )
    res = run_trace_experiment(trace, exp, seed=2)
    assert np.all(res.final_states != 1)  # extinct in every run
    tail = res.mean_fractions[-1, 0]
    assert tail[0] > 0.95  # susceptible again
    assert tail[2] < 0.05  # protection has drained


def test_two_class_fractions_are_per_class():
    trace = make_complete_mixing_trace(9, 1 / 600.0, 3600.0, seed=6)
    initial = {nid: "S" for nid in trace.node_ids}
    initial[0] = "I"
    exp = TraceExperiment(
        gamma=1 / 600.0,
        delta=1 / 900.0,
        classes=(
            ClassSpec(1.0, StepResponse(0.1)),
            ClassSpec(1.0, StepResponse(0.9)),
        ),
        initial=initial,
        class_assignment={nid: (0 if nid < 3 else 1) for nid in trace.node_ids},
        runs=2,
        grid_dt=60.0,
    )
    res = run_trace_experiment(trace, exp, seed=4)
    assert res.mean_fractions.shape[1] == 3  # aggregate + 2 classes
    assert np.allclose(res.mean_fractions[:, 1].sum(axis=1), 1.0)
    assert np.allclose(res.mean_fractions[:, 2].sum(axis=1), 1.0)
    # the aggregate is the size-weighted mix of the class rows
    mix = (3 * res.mean_fractions[:, 1] + 6 * res.mean_fractions[:, 2]) / 9
    assert np.allclose(res.mean_fractions[:, 0], mix)
    assert res.class_of.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_a_long_run_holds_one_clock_block_at_a_time():
    # 5 nodes * (100 + 66) / s * 2410 s = 2e6 clock events in one run.  A
    # run that drew its whole clock stream up front peaked near 390 MB.
    # VmHWM is the peak RSS of the child alone: its ru_maxrss would also
    # count the test process it was spawned from.
    script = (
        "from epiresponse.model import ClassSpec, SigmoidResponse\n"
        "from epiresponse.traces import TraceExperiment, parse_trace, "
        "run_trace_experiment\n"
        f"trace = parse_trace(open({str(DATA / 'five_node.csv')!r}))\n"
        "exp = TraceExperiment(100.0, 66.0, (ClassSpec(1.0, "
        "SigmoidResponse(0.5, 0.01)),), {0: 'I', 1: 'S', 2: 'S', 3: 'S', "
        "4: 'S'}, runs=1)\n"
        "run_trace_experiment(trace, exp, seed=3)\n"
        "print(*(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(epiresponse.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert int(out.stdout) < 150 * 1024


def test_a_sub_ulp_sigmoid_replays_as_its_step():
    # the ramp (1e-300) rounds away at i_star = 0.25: each class table is
    # the step's, so every array of the result is the step's
    trace = make_complete_mixing_trace(12, 0.01, 2000.0, seed=1)
    initial = {nid: ("I" if nid < 4 else "S") for nid in trace.node_ids}
    step, sigmoid = (
        run_trace_experiment(
            trace,
            TraceExperiment(gamma=0.01, delta=0.002, classes=(ClassSpec(1.0, spec),),
                            initial=initial, runs=5, grid_dt=10.0),
            seed=9,
        )
        for spec in (StepResponse(0.25), SigmoidResponse(0.25, 1e-300))
    )
    for name in ("times", "mean_fractions", "per_run_avg", "final_states", "class_of"):
        np.testing.assert_array_equal(getattr(sigmoid, name), getattr(step, name))
    assert (sigmoid.node_ids, sigmoid.transient_cut) == (step.node_ids, step.transient_cut)
