import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from epiresponse import equilibria as equilibria_module, integrator
from epiresponse.equilibria import (
    Equilibrium,
    EquilibriumKind,
    find_equilibria,
    g_function,
    sliding_normal_form,
    stability_sliding,
)
from epiresponse.integrator import (
    _EVENT_PROBES,
    LOOP_COUNT,
    LOOP_TOL,
    DomainError,
    EventKind,
    IntegratorConfig,
    StepBudgetError,
    StepUnderflowError,
    TerminationReason,
    Trajectory,
    _no_crossing,
    classify_basin,
    dulac_scan,
    energy_E,
    integrate,
    monotone_M,
)
from epiresponse.model import (
    ConstantResponse,
    FieldPoint,
    FieldSegment,
    ModelParams,
    SigmoidResponse,
    State,
    StepResponse,
    TabulatedResponse,
    _piece_fields,
    compile_field,
    compile_response,
    field,
)
from test_model import tabulated_responses

FIG = ModelParams(beta=1.0, gamma=1.0, delta=0.5)  # reference parameter set


def crossings(traj):
    return [(t, k) for t, k in traj.events if k in (EventKind.CROSS_UP, EventKind.CROSS_DOWN)]


def state_at(traj, t):
    idx = int(np.searchsorted(traj.times, t))
    assert traj.times[idx] == t
    return traj.states[idx]


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=-1.0)
    for name in ("rel_tol", "abs_tol", "t_max", "event_tol", "equilibrium_eps"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            IntegratorConfig(**{name: math.inf})


# ------------------------------------------------------------ smooth flows


# Finite inputs on which the first step size or the error norm once raised
# OverflowError (a square of a huge ratio) or ZeroDivisionError (a first
# step that underflowed to 0), or on which a step of exactly 0 looped
# forever (t_max so small that 1e-14 * t_max is 0).
@pytest.mark.parametrize(
    "params, x0, cfg",
    [
        (FIG, State(0.9, 0.05), IntegratorConfig(t_max=30, rel_tol=1e-300, abs_tol=1e-300)),
        (ModelParams(1e-300, 1e-300, 1e300), State(0.9, 0.05), IntegratorConfig(t_max=30)),
        (ModelParams(1e-9, 1.0, 1e300), State(1e-9, 1e-300), IntegratorConfig(t_max=30)),
        (
            ModelParams(0.25, 0.25, 2.6e191),
            State(0.0, 1.0 / 3.0),
            IntegratorConfig(t_max=5e-324, event_tol=2.6e191, capture_spiral=False),
        ),
    ],
)
def test_unrepresentable_steps_raise_step_underflow(params, x0, cfg):
    with pytest.raises(StepUnderflowError):
        integrate(params, StepResponse(0.2), x0, cfg)


def test_a_zeno_spiral_without_capture_spends_the_step_budget(monkeypatch):
    # ~22 us an accepted point and ~125,000 points by t = 12: without the
    # budget the default t_max = 1e4 is out of reach
    monkeypatch.setattr(integrator, "MAX_STEPS", 2000)
    cfg = IntegratorConfig(capture_spiral=False)
    start = time.perf_counter()
    with pytest.raises(StepBudgetError) as info:
        integrate(ModelParams(1.0, 3.0, 0.2), StepResponse(0.1), State(0.6, 0.1), cfg)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < info.value.t < cfg.t_max
    assert info.value.state.i == pytest.approx(0.1, abs=0.05)
    message = str(info.value)
    assert "2000 DP5 attempts" in message
    assert "crossings of the switching line" in message
    assert "Zeno" in message and "capture_spiral" in message


def test_the_step_budget_advice_follows_the_capture_setting(monkeypatch):
    # with the real budget the capture-on run ends by the certificate at
    # t = 7.19, so 50 attempts stop both runs mid-spiral
    monkeypatch.setattr(integrator, "MAX_STEPS", 50)
    advice = {}
    for capture in (True, False):
        with pytest.raises(StepBudgetError) as info:
            integrate(FIG, StepResponse(0.2), State(0.9, 0.05),
                      IntegratorConfig(capture_spiral=capture))
        advice[capture] = str(info.value).partition("never reach t_max; ")[2]
    assert advice[False] == "set capture_spiral = true or lower t_max"
    assert "set capture_spiral" not in advice[True]
    assert advice[True].startswith("capture_spiral = true did not end this run")
    assert advice[True].endswith("lower t_max")


def test_first_step_guess_below_min_step_is_tried_at_min_step():
    # at s = 0 with a tiny i the first-step heuristic proposes ~1e-14,
    # below 1e-14 * t_max: that is a poor guess, not an underflow
    traj = integrate(ModelParams(1.0, 1.0, 1.0), StepResponse(0.5),
                     State(0.0, 1e-14), IntegratorConfig(t_max=30.0))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert traj.equilibrium.kind is EquilibriumKind.DISEASE_FREE


def test_plain_sir_peaks_at_recovery_ratio():
    # gamma = 0 switches the decision dynamics off entirely
    p = ModelParams(beta=1.0, gamma=0.0, delta=0.5)
    traj = integrate(p, ConstantResponse(0.0, 1.0), State(0.99, 0.01),
                     IntegratorConfig(t_max=60.0))
    grid = np.linspace(0.0, traj.final_time, 40001)
    vals = traj.evaluate(grid)
    k = int(np.argmax(vals[:, 1]))
    assert vals[k, 0] == pytest.approx(0.5, abs=5e-4)
    # s + i - (delta/beta) ln s is a first integral of the SIR flow
    e0 = energy_E(p, State(0.99, 0.01))
    for t, x in traj.samples[1:]:
        if x.i > 1e-12:
            assert energy_E(p, x) == pytest.approx(e0, rel=1e-8)


def test_endemic_convergence_continuous_response():
    spec = SigmoidResponse(0.2, 0.05)
    traj = integrate(FIG, spec, State(0.9, 0.05))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert traj.events[-1][1] is EventKind.REACHED_EQUILIBRIUM
    assert traj.final_state.s == pytest.approx(0.5, abs=1e-6)
    assert 0.15 < traj.final_state.i < 0.25


def test_start_at_equilibrium_returns_immediately():
    traj = integrate(FIG, StepResponse(0.5), State(0.5, 1.0 / 3.0))
    assert traj.final_time == 0.0
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert traj.equilibrium == find_equilibria(FIG, StepResponse(0.5))[-1]


def test_gamma_zero_comes_to_rest_on_the_stationary_line():
    # without decision updates every point of i = 0 is stationary, not
    # only the listed X0 = (1, 0): the SIR flow settles at s < 1
    p = ModelParams(beta=1.0, gamma=0.0, delta=0.5)
    traj = integrate(p, StepResponse(0.2), State(0.9, 0.05))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert 50.0 < traj.final_time < 60.0
    s, i = traj.final_state.s, traj.final_state.i
    assert 0.0 < i <= 1e-7
    assert traj.equilibrium == Equilibrium(
        EquilibriumKind.DISEASE_FREE, State(s, 0.0), degenerate=True
    )


def test_gamma_zero_small_seed_grows_off_the_line():
    # near i = 0 but with beta*s > delta the line repels: the outbreak
    # peaks at s = delta/beta, i = s0 - (delta/beta)(1 + ln(beta*s0/delta))
    p = ModelParams(beta=1.0, gamma=0.0, delta=0.5)
    traj = integrate(p, StepResponse(0.2), State(0.9, 1e-8))
    assert traj.final_time > 50.0
    assert traj.final_state.s < 0.5
    peak = traj.evaluate(np.linspace(0.0, traj.final_time, 100_001))
    s_peak, i_peak = peak[np.argmax(peak[:, 1])]
    assert s_peak == pytest.approx(0.5, abs=1e-4)
    assert i_peak == pytest.approx(0.9 - 0.5 * (1.0 + math.log(1.8)), abs=1e-6)
    # exactly on the line nothing moves, whatever beta*s
    still = integrate(p, StepResponse(0.2), State(0.9, 0.0))
    assert still.final_time == 0.0
    assert still.equilibrium == Equilibrium(
        EquilibriumKind.DISEASE_FREE, State(0.9, 0.0), degenerate=True
    )


def test_a_small_seed_leaves_an_unstable_disease_free_point():
    # X0 = (1, 0) with beta*s > delta repels: a start within eps of it
    # grows into the outbreak, as one 100x further out does
    spec = SigmoidResponse(0.3, 0.05)
    for i0 in (5e-8, 5e-6):
        traj = integrate(FIG, spec, State(1.0 - i0, i0))
        assert traj.final_time > 40.0
        assert traj.equilibrium.kind is EquilibriumKind.ENDEMIC
    # exactly on the line the disease-free point holds
    assert integrate(FIG, spec, State(1.0, 0.0)).final_time == 0.0


def _ramp(a, width):
    return TabulatedResponse(
        (0.0, a, a + width, 1.0), (0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 0.0)
    )


# The largest distance to DOP853 at rtol 1e-13 allowed for each response:
# with every knot located, the ramps meet 8.0e-10 and 8.4e-10 and the
# constant response 1.6e-10; the narrow sigmoid, 8 knot crossings and ~800
# samples, 2.8e-8.
DOP853_BOUND = {
    SigmoidResponse(0.2, 0.05): 1e-8,
    _ramp(0.2, 0.05): 1e-8,
    ConstantResponse(0.3, 0.6): 1e-8,
    SigmoidResponse(0.3, 0.001): 1e-7,
}


@pytest.mark.parametrize("spec", list(DOP853_BOUND))
def test_dense_output_matches_scipy_dop853(spec):
    traj = integrate(FIG, spec, State(0.9, 0.05), IntegratorConfig(t_max=40.0))
    grid = np.linspace(0.0, traj.final_time, 401)
    rhs = compile_field(FIG, spec)
    ref = solve_ivp(
        lambda t, y: rhs(y[0], y[1]),
        (0.0, traj.final_time),
        [0.9, 0.05],
        method="DOP853",
        t_eval=grid,
        rtol=1e-13,
        atol=1e-15,
    )
    assert ref.success
    assert np.max(np.abs(traj.evaluate(grid) - ref.y.T)) < DOP853_BOUND[spec]


def _knots(spec):
    return [x0 for x0, _, _ in _piece_fields(FIG, spec)[1:]]


@pytest.mark.parametrize(
    "spec", [SigmoidResponse(0.2, 0.05), _ramp(0.2, 0.05), SigmoidResponse(0.3, 0.001)]
)
def test_every_piece_change_is_a_sample_on_a_knot(spec):
    """No step straddles a knot: the path changes pieces only at accepted
    samples with i exactly on a knot, and kinks log no crossing events."""
    traj = integrate(FIG, spec, State(0.9, 0.05), IntegratorConfig(t_max=40.0))
    i = traj.states[:, 1]
    knots = _knots(spec)
    assert any(np.any(i == x) for x in knots)
    for a, b in zip(i, i[1:]):
        assert not any(min(a, b) < x < max(a, b) for x in knots)
    assert crossings(traj) == []


def test_a_knot_below_the_tolerances_ends_within_the_step_budget():
    # p_ps falls from 1 to 0 across [0, 3.48e-136], where the endemic point
    # sits on the knot: the run reaches t_max without spending `MAX_STEPS`,
    # though it comes back to that knot ~200 times
    spec = TabulatedResponse((0.0, 3.48e-136), (0.0, 0.0), (1.0, 0.0))
    cfg = IntegratorConfig()
    traj = integrate(FIG, spec, State(0.9, 0.05), cfg)
    assert traj.final_time == cfg.t_max
    assert np.count_nonzero(traj.states[:, 1] == 3.48e-136) > 0


def _near(x, ulps):
    """``x`` moved by ``ulps`` units in the last place, either way."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


COEFFS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False),
)
STEPS = st.one_of(
    st.floats(5e-324, 1e-300),
    st.floats(1e-18, 1e-14),  # probes within a few ulps of i ~ 0.1-1
    st.floats(1e-300, 1e300),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]),
)


@settings(max_examples=500)
@example(knot=0.2, ulps=1, below=False, far=math.inf, h=5e-324, q=(1.0, -1.0, 0.5, 0.0))
# i four ulps above the knot, the probe at u = 1 four ulps further and the
# other bound three: any bound short of the full reach lets that probe out
@example(knot=0.25, ulps=4, below=False, far=-0.75, h=math.ulp(0.25), q=(1.0, 1.0, 1.0, 1.0))
@given(
    knot=st.floats(0.0, 1.0),
    ulps=st.integers(-4, 4),
    below=st.booleans(),
    far=st.one_of(st.just(math.inf), st.floats(0.0, 1.0), st.floats(0.5, 2.0).map(lambda m: -m)),
    h=STEPS,
    q=st.tuples(COEFFS, COEFFS, COEFFS, COEFFS),
)
def test_no_crossing_bound_keeps_every_probe_inside(knot, ulps, below, far, h, q):
    """Whenever `_no_crossing` lets a step skip its probes, each of the
    eight probes, computed as the loop computes it, lies strictly inside
    the piece: for any step size, i within a few ulps of a knot, and bounds
    that may be infinite.  The other bound lies at ``far`` on the far side,
    or, for a negative ``far``, at -far times h*(|q1| + |q2| + |q3| + |q4|)
    from i, where a probe may reach it."""
    i = _near(knot, ulps)
    side = -1.0 if below else 1.0
    other = i - side * far * h * sum(map(abs, q)) if far < 0.0 else side * far
    lo, hi = (other, knot) if below else (knot, other)
    if _no_crossing(i, h, q, lo, hi):
        q1, q2, q3, q4 = q
        for u in _EVENT_PROBES:
            g = i + h * u * (q1 + u * (q2 + u * (q3 + u * q4)))
            assert lo < g < hi


PARAMS = st.builds(
    ModelParams, st.floats(0.3, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 1.0)
)
RESPONSES = st.one_of(
    st.builds(StepResponse, st.floats(0.05, 0.6)),
    st.builds(SigmoidResponse, st.floats(0.05, 0.6), st.floats(0.01, 0.2)),
    st.builds(_ramp, st.floats(0.05, 0.6), st.floats(0.01, 0.3)),
)
STARTS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda u: State(u[0] * (1.0 - u[1]), u[1])
)


def _distance(x, eq):
    return max(abs(x[0] - eq.point.s), abs(x[1] - eq.point.i))


# delta/beta = 1 - 2^-53 would put X1 at i ~ 1e-16, within round-off of X0;
# folded into X0, it cannot hold this start, which lies nearer X0
_ROUNDED_X1 = dict(
    params=ModelParams(1.0, 1.0, 0.9999999999999999),
    starts=[State(1.0, 2.7466064681106916e-157)],
)


@settings(max_examples=100, deadline=None)
@example(spec=StepResponse(0.5), **_ROUNDED_X1)
@example(spec=SigmoidResponse(0.5, 0.125), **_ROUNDED_X1)
@given(params=PARAMS, spec=RESPONSES, starts=st.lists(STARTS, min_size=1, max_size=3))
def test_rest_rule_names_the_nearest_listed_equilibrium(params, spec, starts):
    """A trajectory carries the listed equilibrium nearest to its final
    state, which lies within 10 * eps (a looser, independent form of the
    rest rule), and carries none exactly when it ran to t_max."""
    cfg = IntegratorConfig(t_max=30.0, store_dense=False)
    listed = find_equilibria(params, spec)
    for x0 in starts:
        traj = integrate(params, spec, x0, cfg)
        assert (traj.equilibrium is None) == (traj.reason is TerminationReason.T_MAX)
        if traj.equilibrium is not None:
            final = traj.states[-1]
            nearest = min(listed, key=lambda eq: _distance(final, eq))
            assert _distance(final, nearest) <= 10.0 * cfg.equilibrium_eps
            assert traj.equilibrium == nearest


@given(params=PARAMS, spec=RESPONSES, i=st.floats(0.0, 1.0))
def test_g_is_the_field_on_the_line_s_equals_delta_over_beta(params, spec, i):
    beta, gamma, delta = params.beta, params.gamma, params.delta
    g = g_function(params, spec, i)
    p_sp, p_ps = compile_response(spec)(i)
    terms = (
        -delta * i,
        -(gamma * delta / beta) * p_sp,
        gamma * (1.0 - delta / beta - i) * p_ps,
    )
    # g evaluates the three terms of its docstring; each rounds at most
    # three times, each way, and the two sums once each, so any evaluation
    # of them agrees to ~10 ulps of the terms' size
    assert abs(g - sum(terms)) <= 10 * math.ulp(sum(map(abs, terms)))


@settings(max_examples=300, deadline=None)
@given(params=PARAMS, data=st.data())
def test_field_strictly_inside_a_piece_is_the_piece_field(params, data):
    """Strictly inside a `_piece_fields` piece, `field` is that piece's
    field bit for bit, so `settle` reads the loop's own (fs, fi) there.  On
    a step's L, `field` is the segment of its two pieces, and
    `compile_field` takes the lower one."""
    spec = data.draw(st.one_of(RESPONSES, tabulated_responses()))
    pieces = _piece_fields(params, spec)
    x0, x1, rhs = data.draw(st.sampled_from(pieces))
    i = data.draw(st.floats(x0, x1))
    s = data.draw(st.floats(0.0, 1.0)) * (1.0 - i)
    if x0 < i < x1:
        assert field(params, spec, State(s, i)) == FieldPoint(*rhs(s, i))
    if isinstance(spec, StepResponse):
        (_, _, below), (_, _, above) = pieces
        i = spec.i_star
        s = data.draw(st.floats(0.0, 1.0)) * (1.0 - i)
        ds_hi, di = below(s, i)
        assert field(params, spec, State(s, i)) == FieldSegment(above(s, i)[0], ds_hi, di)
        assert compile_field(params, spec)(s, i) == (ds_hi, di)


# ------------------------------------------------------- diagnostics E and M


def test_energy_conserved_on_protecting_branch():
    spec = StepResponse(0.1)
    traj = integrate(FIG, spec, State(0.3, 0.6), IntegratorConfig(t_max=50.0))
    down = [t for t, k in traj.events if k is EventKind.CROSS_DOWN]
    assert down, "trajectory never left the protecting region"
    e0 = energy_E(FIG, State(0.3, 0.6))
    for t, x in traj.samples:
        if t >= down[0]:
            break
        assert energy_E(FIG, x) == pytest.approx(e0, rel=1e-6)


def test_monotone_decreases_on_relaxed_branch():
    traj = integrate(FIG, StepResponse(0.5), State(0.9, 0.05))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    prev = monotone_M(FIG, State(0.9, 0.05))
    for _, x in traj.samples[1:]:
        cur = monotone_M(FIG, x)
        assert cur <= prev + 1e-8
        prev = cur
    # minimised at the endemic point
    assert traj.final_state.s == pytest.approx(0.5, abs=1e-6)
    assert traj.final_state.i == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_diagnostics_need_interior_points():
    with pytest.raises(DomainError):
        energy_E(FIG, State(0.0, 0.5))
    with pytest.raises(DomainError):
        monotone_M(FIG, State(0.5, 0.0))


# ------------------------------------------------------- threshold crossings


def test_crossings_alternate_and_land_exactly_on_threshold():
    cfg = IntegratorConfig(capture_spiral=False, t_max=12.0)
    traj = integrate(FIG, StepResponse(0.2), State(0.9, 0.05), cfg)
    cs = crossings(traj)
    assert len(cs) >= 20
    assert cs[0][1] is EventKind.CROSS_UP  # starts below the threshold
    kinds = [k for _, k in cs]
    assert all(a is not b for a, b in zip(kinds, kinds[1:]))
    times = [t for t, _ in cs]
    assert times == sorted(times)
    for t, _ in cs:
        s, i = state_at(traj, t)
        assert i == 0.2  # crossing states are pinned to the line exactly


def test_event_tol_below_round_off_still_terminates():
    # 1e-20 is below the spacing of doubles near a crossing time: the
    # bisection stops at adjacent doubles instead of looping forever
    cfg = IntegratorConfig(t_max=30.0, event_tol=1e-20)
    traj = integrate(FIG, StepResponse(0.2), State(0.9, 0.05), cfg)
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert crossings(traj)[0][1] is EventKind.CROSS_UP


def test_crossing_radii_follow_one_sided_coefficients():
    """Successive crossing distances r_n to the sliding point obey
    1/r_{n+2} - 1/r_n -> |A+| + |A-|  (= 16/3 for these parameters)."""
    cfg = IntegratorConfig(capture_spiral=False, t_max=15.0)
    traj = integrate(FIG, StepResponse(0.2), State(0.9, 0.05), cfg)
    assert traj.reason is TerminationReason.T_MAX
    rs = np.array([abs(state_at(traj, t)[0] - 0.5) for t, _ in crossings(traj)])
    assert len(rs) > 100
    assert np.all(np.diff(rs[5:]) < 0)  # monotone shrink once settled
    inv_turn = np.diff(1.0 / rs[::2])  # full revolutions: same-side crossings
    tail = inv_turn[-20:]
    assert tail.mean() == pytest.approx(16.0 / 3.0, rel=0.02)


def test_first_crossing_time_converges_under_refinement():
    def first_cross(rel, abs_):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=abs_, capture_spiral=False,
                               t_max=5.0)
        traj = integrate(FIG, StepResponse(0.2), State(0.9, 0.05), cfg)
        return crossings(traj)[0][0]

    t_ref = first_cross(1e-12, 1e-14)
    err_loose = abs(first_cross(1e-5, 1e-7) - t_ref)
    err_tight = abs(first_cross(1e-9, 1e-11) - t_ref)
    assert err_tight < err_loose
    assert err_tight < 1e-8


# --------------------------------------------------------- sliding capture


def test_capture_terminates_exactly_at_sliding_point():
    traj = integrate(FIG, StepResponse(0.2), State(0.9, 0.05))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert traj.final_state == State(0.5, 0.2)  # bitwise, not approximately
    kinds = [k for _, k in traj.events]
    assert kinds[-2:] == [EventKind.HIT_SLIDING, EventKind.REACHED_EQUILIBRIUM]
    assert traj.final_time < 30.0
    assert traj.equilibrium == find_equilibria(FIG, StepResponse(0.2))[-1]


def test_a_captured_run_solves_its_equilibria_once(monkeypatch):
    """integrate classifies the X2 that find_equilibria listed; only the
    public stability_sliding solves again, to check that X2 exists."""
    solves = []

    def counted(*args):
        solves.append(args)
        return find_equilibria(*args)

    monkeypatch.setattr(equilibria_module, "find_equilibria", counted)
    monkeypatch.setattr(integrator, "find_equilibria", counted)
    traj = integrate(FIG, StepResponse(0.2), State(0.9, 0.05))
    assert traj.equilibrium.kind is EquilibriumKind.SLIDING
    assert [kind for _, kind in traj.events][-2] is EventKind.HIT_SLIDING
    assert len(solves) == 1
    stability_sliding(FIG, 0.2)
    assert len(solves) == 2


def loop_gain(params, i_star):
    """|A+ - A-|: the growth of 1/r per loop of the fused focus."""
    report = stability_sliding(params, i_star)
    return abs(report.a_plus - report.a_minus)


def certified(radii, gain, n):
    """The capture certificate at crossing n of an uncaptured run: each of
    the last LOOP_COUNT crossings gains 1/r - 1/r_prev within relative
    LOOP_TOL of `gain` over the crossing before on the same side of L,
    and has a radius below the crossing just before it."""
    return n >= LOOP_COUNT + 1 and all(
        abs(1.0 / radii[k] - 1.0 / radii[k - 2] - gain) <= LOOP_TOL * gain
        and radii[k] < radii[k - 1]
        for k in range(n + 1 - LOOP_COUNT, n + 1)
    )


def crossing_radii(traj, s_slide):
    times = [t for t, _ in crossings(traj)]
    return times, [abs(state_at(traj, t)[0] - s_slide) for t in times]


@pytest.mark.parametrize(
    "i_star, x0",
    [(0.2, State(0.9, 0.05)), (0.25, State(0.3, 0.6)), (0.15, State(0.6, 0.1))],
)
def test_capture_fires_at_the_first_crossing_that_meets_the_certificate(i_star, x0):
    """An uncaptured run is the oracle: capture fires at its first crossing
    where the certificate holds, and both runs agree bitwise until then."""
    spec = StepResponse(i_star)
    caught = integrate(FIG, spec, x0)
    assert caught.equilibrium.kind is EquilibriumKind.SLIDING
    cfg = IntegratorConfig(capture_spiral=False, t_max=caught.final_time + 0.5)
    free = integrate(FIG, spec, x0, cfg)
    assert free.reason is TerminationReason.T_MAX
    cross_times, radii = crossing_radii(free, caught.equilibrium.point.s)
    gain = loop_gain(FIG, i_star)
    fire = next(n for n in range(len(radii)) if certified(radii, gain, n))
    t_fire = cross_times[fire]
    assert (t_fire, EventKind.HIT_SLIDING) in caught.events
    assert caught.final_time == t_fire
    assert len(crossings(caught)) == fire + 1
    m = int(np.searchsorted(free.times, t_fire))
    assert np.array_equal(caught.times, free.times[: m + 1])
    assert np.array_equal(caught.states[:m], free.states[:m])


@pytest.mark.parametrize("x0", [State(0.9, 0.05), State(0.6, 0.3)])
def test_readme_sliding_run_is_captured_within_eight_crossings(x0):
    # the work gate, counted rather than timed: 5 crossings each; the
    # streak of 6 radii below 3e-3 that capture once waited for took 130
    # from (0.9, 0.05)
    traj = integrate(FIG, StepResponse(0.2), x0, IntegratorConfig(t_max=30.0))
    assert traj.equilibrium.kind is EquilibriumKind.SLIDING
    assert traj.final_state == State(0.5, 0.2)
    assert len(crossings(traj)) <= 8


# Admissible step models with a sliding point, i_star a fraction of I1 (every
# admissible sliding point of this model that is not `boundary` is
# asymptotically stable), and a start in the interior.
SLIDING_CASES = st.tuples(
    st.floats(0.5, 3.0),  # beta
    st.floats(0.2, 5.0),  # gamma
    st.floats(0.1, 0.8),  # delta / beta
    st.floats(0.2, 0.95),  # i_star / I1
    STARTS.filter(lambda x: x.i >= 0.01),
)


@settings(max_examples=20, deadline=None)
# corner starts whose gains at r ~ 2e-3 still carry the normal form's O(r)
# term, -1.6e-3 relative: the 1e-3 bound holds only further in
@example(case=(2.0, 0.5, 0.75, 0.9375, State(0.0, 1.0)))
@example(case=(1.0, 0.203125, 0.5, 0.9375, State(0.0, 1.0)))
@example(case=(3.0, 0.5, 0.5, 0.9375, State(0.0, 1.0)))
@given(case=SLIDING_CASES)
def test_spiral_follows_the_sliding_normal_form(case):
    """Without capture the crossing radii r obey the fused-focus normal
    form: 1/r gains |A+ - A-| per loop, and a loop takes c*r, so the time
    from radius r0 to r is c/|A| * ln(r0/r), c = 2*(1/P+(0,0) + 1/|P-(0,0)|).
    Wherever the certificate first holds, the spiral goes on shrinking
    below 3e-3 (the radius capture once waited for).  The gain's relative
    error is O(r): ~1.6e-3 at r ~ 2e-3, so the 1e-3 bound is checked at
    r ~ 2e-4, on a run whose crossings are located to 1e-14 in time (at the
    default 1e-10 the location error in s, divided by r^2, exceeds it)."""
    beta, gamma, ratio, frac, x0 = case
    params = ModelParams(beta, gamma, ratio * beta)
    i1 = (1.0 - ratio) / (1.0 + ratio * beta / gamma)
    spec = StepResponse(frac * i1)
    nf = sliding_normal_form(params, spec.i_star)
    gain = loop_gain(params, spec.i_star)
    c = 2.0 * (1.0 / nf.p_plus_0 + 1.0 / abs(nf.p_minus_0))
    s_slide = params.delta / beta

    caught = integrate(params, spec, x0)
    assert caught.events[-2] == (caught.final_time, EventKind.HIT_SLIDING)
    t_fire = caught.final_time
    r_fire = abs(caught.evaluate([t_fire])[0, 0] - s_slide)
    # long enough, by the time law, for r to fall to 2e-3
    t_max = t_fire + 1.25 * c / gain * math.log(max(r_fire, 2e-3) / 2e-3) + 1e-3 * c

    # no false fire, on the run that capture truncates
    free = integrate(params, spec, x0, IntegratorConfig(capture_spiral=False, t_max=t_max))
    times, radii = crossing_radii(free, s_slide)
    fire = times.index(t_fire)
    assert certified(radii, gain, fire)
    assert all(b < a for a, b in zip(radii[fire:], radii[fire + 1 :]))
    assert radii[-1] < 3e-3

    # the normal form, on a run accurate enough to resolve it at r ~ 2e-4,
    # which by the time law it reaches at t_tight
    t_tight = t_fire + c / gain * math.log(max(r_fire, 2e-4) / 2e-4) + 1e-3 * c
    tight = IntegratorConfig(
        capture_spiral=False, t_max=t_tight, rel_tol=1e-12, abs_tol=1e-14, event_tol=1e-14
    )
    times, radii = crossing_radii(integrate(params, spec, x0, tight), s_slide)
    gains = [1.0 / radii[k] - 1.0 / radii[k - 2] for k in range(fire, len(radii))]
    assert all(abs(g - gain) <= LOOP_TOL * gain for g in gains)
    assert all(abs(g - gain) <= 1e-3 * gain for g in gains[-2:])
    last = len(radii) - 1 - (len(radii) - 1 - fire) % 2  # same side as `fire`
    elapsed = times[last] - times[fire]
    assert elapsed == pytest.approx(c / gain * math.log(radii[fire] / radii[last]), rel=5e-3)


def test_capture_not_armed_without_stable_certificate():
    # delta >= beta: no sliding point at all, trajectory dies out instead
    p = ModelParams(beta=0.4, gamma=1.0, delta=0.5)
    traj = integrate(p, StepResponse(0.2), State(0.5, 0.4))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert traj.final_state.i == pytest.approx(0.0, abs=1e-6)
    assert traj.final_state.s == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------- starts on the line


def test_online_start_above_tangency_crosses_up():
    traj = integrate(FIG, StepResponse(0.2), State(0.75, 0.2))
    assert traj.events[0] == (0.0, EventKind.CROSS_UP)
    assert traj.reason is TerminationReason.EQUILIBRIUM


def test_online_start_below_tangency_crosses_down():
    traj = integrate(FIG, StepResponse(0.2), State(0.2, 0.2))
    assert traj.events[0] == (0.0, EventKind.CROSS_DOWN)


def test_online_start_at_admissible_sliding_point_stops():
    traj = integrate(FIG, StepResponse(0.2), State(0.5, 0.2))
    assert traj.final_time == 0.0
    assert [k for _, k in traj.events] == [
        EventKind.HIT_SLIDING,
        EventKind.REACHED_EQUILIBRIUM,
    ]
    assert traj.equilibrium.kind is EquilibriumKind.SLIDING


def test_online_tangency_without_sliding_point_continues_below():
    # i_star = 0.5 > I1 = 1/3: the line holds no equilibrium at s = 1/2
    traj = integrate(FIG, StepResponse(0.5), State(0.5, 0.5))
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert traj.final_state.i == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert all(k is not EventKind.HIT_SLIDING for _, k in traj.events)


# ------------------------------------------------------------- dense output


def test_dense_output_matches_samples_and_conserves_energy():
    traj = integrate(FIG, StepResponse(0.1), State(0.3, 0.6),
                     IntegratorConfig(t_max=2.0))
    # endpoint consistency
    some = traj.samples[1:10]
    vals = traj.evaluate([t for t, _ in some])
    for (t, x), (s, i) in zip(some, vals):
        assert s == pytest.approx(x.s, abs=1e-9)
        assert i == pytest.approx(x.i, abs=1e-9)
    # the interpolant itself honours the first integral between samples
    e0 = energy_E(FIG, State(0.3, 0.6))
    down = [t for t, k in traj.events if k is EventKind.CROSS_DOWN]
    horizon = down[0] if down else traj.final_time
    fine = np.linspace(0.0, horizon * 0.999, 1000)
    for s, i in traj.evaluate(fine):
        assert energy_E(FIG, State(s, i)) == pytest.approx(e0, rel=1e-6)


def test_evaluate_rejects_out_of_range_and_missing_storage():
    traj = integrate(FIG, StepResponse(0.5), State(0.9, 0.05))
    with pytest.raises(ValueError):
        traj.evaluate([traj.final_time + 1.0])
    with pytest.raises(ValueError):
        traj.evaluate([-0.5])
    lean = integrate(FIG, StepResponse(0.5), State(0.9, 0.05),
                     IntegratorConfig(store_dense=False))
    with pytest.raises(ValueError):
        lean.evaluate([0.0])


def test_sample_storage_can_be_disabled():
    cfg = IntegratorConfig(store_samples=False, store_dense=False)
    traj = integrate(FIG, StepResponse(0.5), State(0.9, 0.05), cfg)
    assert traj.reason is TerminationReason.EQUILIBRIUM
    assert len(traj.times) == 2  # just the endpoints
    assert traj.final_state.i == pytest.approx(1.0 / 3.0, abs=1e-6)


# ------------------------------------------------------------- periodic-orbit scan


def test_dulac_scan_values():
    # sigmoid and tabulated responses here satisfy p_sp + p_ps = 1, so the
    # scanned quantity is -beta - gamma/i, worst at i = 1
    assert dulac_scan(FIG, SigmoidResponse(0.5, 0.1), 50) == pytest.approx(-2.0)
    assert dulac_scan(FIG, ConstantResponse(0.2, 0.3), 40) == pytest.approx(-1.5)


def test_dulac_scan_rejects_bad_inputs():
    with pytest.raises(TypeError):
        dulac_scan(FIG, StepResponse(0.5), 50)
    with pytest.raises(ValueError):
        dulac_scan(FIG, SigmoidResponse(0.5, 0.1), 1)


# ------------------------------------------------------------------- basins


def grid_states(n):
    out = []
    for s in np.linspace(0.05, 0.9, n):
        for i in np.linspace(0.05, 0.9, n):
            if s + i <= 1.0:
                out.append(State(float(s), float(i)))
    return out


def test_basin_all_endemic_when_threshold_high():
    labels = classify_basin(FIG, StepResponse(0.5), grid_states(4))
    assert set(labels.values()) == {EquilibriumKind.ENDEMIC}


def test_basin_all_sliding_when_threshold_low():
    labels = classify_basin(FIG, StepResponse(0.2), grid_states(4))
    assert set(labels.values()) == {EquilibriumKind.SLIDING}


def test_basin_disease_free_when_subcritical():
    p = ModelParams(beta=0.4, gamma=1.0, delta=0.5)
    labels = classify_basin(p, StepResponse(0.5), grid_states(4))
    assert set(labels.values()) == {EquilibriumKind.DISEASE_FREE}


def test_basin_axis_goes_disease_free():
    starts = [State(0.3, 0.0), State(0.8, 0.0)]
    labels = classify_basin(FIG, StepResponse(0.5), starts)
    assert set(labels.values()) == {EquilibriumKind.DISEASE_FREE}
