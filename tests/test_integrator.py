import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from epiresponse.equilibria import (
    Equilibrium,
    EquilibriumKind,
    find_equilibria,
    g_function,
)
from epiresponse.integrator import (
    DomainError,
    EventKind,
    IntegratorConfig,
    StepUnderflowError,
    TerminationReason,
    Trajectory,
    classify_basin,
    dulac_scan,
    energy_E,
    integrate,
    monotone_M,
)
from epiresponse.model import (
    ConstantResponse,
    ModelParams,
    SigmoidResponse,
    State,
    StepResponse,
    TabulatedResponse,
    compile_field,
    compile_response,
)

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


@pytest.mark.parametrize(
    "spec", [SigmoidResponse(0.2, 0.05), _ramp(0.2, 0.05), ConstantResponse(0.3, 0.6)]
)
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
        rtol=1e-10,
        atol=1e-12,
    )
    assert ref.success
    assert np.max(np.abs(traj.evaluate(grid) - ref.y.T)) < 1e-6


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
    assert g == compile_field(params, spec)(delta / beta, i)[0]
    p_sp, p_ps = compile_response(spec)(i)
    terms = (
        -delta * i,
        -(gamma * delta / beta) * p_sp,
        gamma * (1.0 - delta / beta - i) * p_ps,
    )
    # each term rounds at most three times, each way, and the two sums
    # once each: the two forms differ by at most ~10 ulps of the terms' size
    assert abs(g - sum(terms)) <= 10 * math.ulp(sum(map(abs, terms)))


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
