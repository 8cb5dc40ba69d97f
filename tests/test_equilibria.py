import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epiresponse.equilibria import (
    BOUNDARY_EPS,
    Equilibrium,
    EquilibriumKind,
    HypothesisViolated,
    NoRootError,
    StabilityReport,
    Verdict,
    endemic_root,
    equilibrium_infection_vs_gamma,
    find_equilibria,
    find_equilibria_continuous,
    find_equilibria_step,
    g_function,
    jacobian,
    sliding_normal_form,
    stability_sliding,
    stability_smooth,
)
from epiresponse.model import (
    ConstantResponse,
    ModelParams,
    SigmoidResponse,
    State,
    StepResponse,
    TabulatedResponse,
    eval_response_selected,
    field,
)

rates = st.floats(0.05, 8.0)


def kinds(eqs):
    return [e.kind for e in eqs]


# -------------------------------------------------------------- step response


def test_disease_free_always_present():
    eqs = find_equilibria_step(ModelParams(2.0, 1.0, 0.7), 0.3)
    assert eqs[0].kind is EquilibriumKind.DISEASE_FREE
    assert eqs[0].point == State(1.0, 0.0)


def test_no_epidemic_when_recovery_beats_transmission():
    eqs = find_equilibria_step(ModelParams(beta=0.5, gamma=1.0, delta=1.0), 0.4)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE]
    assert not eqs[0].degenerate


def test_degenerate_collapse_at_equal_rates():
    eqs = find_equilibria_step(ModelParams(beta=1.0, gamma=1.0, delta=1.0), 0.4)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE]
    assert eqs[0].degenerate


def test_endemic_when_threshold_above_natural_level():
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.5)
    i1 = 1.0 * 0.5 / 1.5
    eqs = find_equilibria_step(p, 0.5)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE, EquilibriumKind.ENDEMIC]
    x1 = eqs[1]
    assert x1.point.s == pytest.approx(0.5)
    assert x1.point.i == pytest.approx(i1)
    assert x1.aux is None


def test_sliding_when_threshold_at_or_below_natural_level():
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.5)
    eqs = find_equilibria_step(p, 0.2)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE, EquilibriumKind.SLIDING]
    x2 = eqs[1]
    assert x2.point == State(0.5, 0.2)
    assert not x2.boundary
    # the held state really is stationary: aux is the unprotect probability
    # that balances recovery on the line
    assert x2.aux == pytest.approx(0.5 * 0.2 / (1.0 * (1.0 - 0.5 - 0.2)))
    assert 0.0 < x2.aux <= 1.0


def test_boundary_flag_when_kinds_coincide():
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.5)
    i1 = p.gamma * (1.0 - p.delta / p.beta) / (p.gamma + p.delta)
    eqs = find_equilibria_step(p, i1)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE, EquilibriumKind.SLIDING]
    assert eqs[1].boundary


def test_boundary_aux_when_i1_rounds_to_the_line_end():
    # delta << gamma: I1 = gamma*(1 - delta/beta)/(gamma + delta) rounds to
    # 1 = 1 - delta/beta, so the aux denominator 1 - delta/beta - i_star is 0
    p = ModelParams(beta=1.0, gamma=0.5, delta=1.1125369292536007e-308)
    x0, x2 = find_equilibria_step(p, 1.0)
    assert x2.kind is EquilibriumKind.SLIDING
    assert x2.boundary
    assert x2.aux == 1.0


@given(rates, rates, rates, st.floats(1e-3, 1.0))
def test_step_partition_is_exhaustive_and_exclusive(beta, gamma, delta, i_star):
    p = ModelParams(beta, gamma, delta)
    eqs = find_equilibria_step(p, i_star)
    ks = kinds(eqs)
    assert ks[0] is EquilibriumKind.DISEASE_FREE
    if delta >= beta:
        assert len(eqs) == 1
        return
    assert len(eqs) == 2
    i1 = gamma * (1.0 - delta / beta) / (gamma + delta)
    if i1 < i_star:
        assert ks[1] is EquilibriumKind.ENDEMIC
    else:
        assert ks[1] is EquilibriumKind.SLIDING
        assert 0.0 < eqs[1].aux <= 1.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        find_equilibria_step(ModelParams(1.0, 1.0, 0.5), 0.0)
    with pytest.raises(ValueError):
        find_equilibria_step(ModelParams(1.0, 1.0, 0.5), 1.5)


def test_dispatcher_routes_by_response_kind():
    p = ModelParams(1.0, 1.0, 0.5)
    assert find_equilibria(p, StepResponse(0.2)) == find_equilibria_step(p, 0.2)
    smooth = find_equilibria(p, SigmoidResponse(0.5, 0.1))
    assert smooth == find_equilibria_continuous(p, SigmoidResponse(0.5, 0.1))


# -------------------------------------------------- continuous responses


def test_continuous_disease_free_location():
    # constant response: X0 sits at s = p_ps / (p_sp + p_ps)
    spec = ConstantResponse(p_sp=0.3, p_ps=0.6)
    eqs = find_equilibria_continuous(ModelParams(0.2, 1.0, 1.0), spec)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE]
    assert eqs[0].point.s == pytest.approx(0.6 / 0.9)
    assert eqs[0].point.i == 0.0


def test_bisection_against_linear_closed_form():
    # with constant probabilities g is affine in i, so the root is explicit
    beta, gamma, delta = 2.0, 1.5, 0.5
    p_sp, p_ps = 0.2, 0.9
    spec = ConstantResponse(p_sp, p_ps)
    p = ModelParams(beta, gamma, delta)
    expected = (gamma * p_ps * (1.0 - delta / beta) - gamma * delta / beta * p_sp) / (
        delta + gamma * p_ps
    )
    root = endemic_root(p, spec)
    assert root == pytest.approx(expected, abs=1e-11)
    assert abs(g_function(p, spec, root)) < 1e-11
    eqs = find_equilibria_continuous(p, spec)
    assert eqs[1].point.i == pytest.approx(expected, abs=1e-11)
    assert eqs[1].point.s == pytest.approx(delta / beta)


def test_no_root_when_protection_dominates_at_zero():
    spec = ConstantResponse(p_sp=1.0, p_ps=0.01)
    p = ModelParams(1.0, 1.0, 0.5)
    assert g_function(p, spec, 0.0) < 0.0
    with pytest.raises(NoRootError):
        endemic_root(p, spec)
    eqs = find_equilibria_continuous(p, spec)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE]


def test_degenerate_root_at_zero():
    # tune p_sp so g(0) = 0 exactly: p_sp = (beta/delta - 1) * p_ps
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.5)
    spec = ConstantResponse(p_sp=0.5, p_ps=0.5)
    assert g_function(p, spec, 0.0) == 0.0
    eqs = find_equilibria_continuous(p, spec)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE]
    assert eqs[0].degenerate


def test_zero_pressure_response_rejected():
    with pytest.raises(ValueError, match="decision pressure"):
        find_equilibria_continuous(
            ModelParams(1.0, 1.0, 0.5), ConstantResponse(0.0, 0.0)
        )


def test_continuous_rejects_step():
    with pytest.raises(TypeError):
        find_equilibria_continuous(ModelParams(1.0, 1.0, 0.5), StepResponse(0.3))


@settings(max_examples=60)
@given(rates, rates, rates, st.floats(0.05, 0.95), st.floats(0.02, 0.5))
def test_g_strictly_decreasing_where_it_matters(beta, gamma, delta, i_star, eps):
    """g has at most one sign change on [0, 1 - delta/beta]."""
    if delta >= beta:
        return
    p = ModelParams(beta, gamma, delta)
    spec = SigmoidResponse(i_star, eps)
    top = 1.0 - delta / beta
    grid = np.linspace(0.0, top, 41)
    vals = [g_function(p, spec, float(i)) for i in grid]
    diffs = np.diff(vals)
    assert np.all(diffs < 1e-12)


def test_endemic_root_for_sigmoid_lies_in_ramp_or_below():
    p = ModelParams(1.0, 1.0, 0.5)
    spec = SigmoidResponse(0.2, 0.05)
    i1 = endemic_root(p, spec)
    # natural level 1/3 exceeds the threshold band, so the root is pinned
    # inside the ramp where protection kicks in
    assert 0.175 <= i1 <= 0.225
    assert abs(g_function(p, spec, i1)) < 1e-10


# -------------------------------------------------------------- stability


def test_disease_free_eigenvalues_exact():
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.5)
    eqs = find_equilibria_step(p, 0.2)
    rep = stability_smooth(p, StepResponse(0.2), eqs[0])
    assert rep.verdict is Verdict.SADDLE
    assert rep.eigenvalues == ((-1 + 0j), (0.5 + 0j))


def test_disease_free_stable_below_threshold_ratio():
    p = ModelParams(beta=0.5, gamma=1.0, delta=1.0)
    eqs = find_equilibria_step(p, 0.4)
    rep = stability_smooth(p, StepResponse(0.4), eqs[0])
    assert rep.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert rep.eigenvalues == ((-1 + 0j), (-0.5 + 0j))


@example(beta=0.05000000000000001, gamma=1.0, delta=0.05, i_star=0.5)
@given(rates, rates, rates, st.floats(1e-3, 1.0))
def test_endemic_point_stable_whenever_admissible(beta, gamma, delta, i_star):
    # An admissible endemic point is never unstable or a saddle.  With beta
    # within round-off of delta it sits on the transcritical bifurcation
    # (the pinned draw: i = 1.06e-16, eigenvalues -1 and ~0), where the
    # verdict is boundary; the test decides which from an independent
    # eigenvalue solve.
    p = ModelParams(beta, gamma, delta)
    spec = StepResponse(i_star)
    for eq in find_equilibria_step(p, i_star)[1:]:
        if eq.kind is EquilibriumKind.ENDEMIC:
            verdict = stability_smooth(p, spec, eq).verdict
            assert verdict not in (Verdict.UNSTABLE, Verdict.SADDLE)
            jac = np.array(jacobian(p, spec, eq.point))
            re_max = float(np.linalg.eigvals(jac).real.max())
            if abs(re_max) <= BOUNDARY_EPS:
                assert verdict is Verdict.BOUNDARY
            else:
                assert verdict is Verdict.ASYMPTOTICALLY_STABLE


def test_sliding_rejects_smooth_classifier():
    p = ModelParams(1.0, 1.0, 0.5)
    eqs = find_equilibria_step(p, 0.2)
    with pytest.raises(ValueError):
        stability_smooth(p, StepResponse(0.2), eqs[1])


def test_jacobian_matches_finite_differences():
    p = ModelParams(1.3, 0.8, 0.4)
    spec = SigmoidResponse(0.3, 0.2)
    x = State(0.4, 0.3)  # inside the ramp, where the i-derivatives bite
    (j11, j12), (j21, j22) = jacobian(p, spec, x)
    h = 1e-6

    def f(s, i):
        v = field(p, spec, State(s, i))
        return v.ds, v.di

    ds_p, di_p = f(x.s + h, x.i)
    ds_m, di_m = f(x.s - h, x.i)
    assert j11 == pytest.approx((ds_p - ds_m) / (2 * h), rel=1e-5, abs=1e-7)
    assert j21 == pytest.approx((di_p - di_m) / (2 * h), rel=1e-5, abs=1e-7)
    ds_p, di_p = f(x.s, x.i + h)
    ds_m, di_m = f(x.s, x.i - h)
    assert j12 == pytest.approx((ds_p - ds_m) / (2 * h), rel=1e-5, abs=1e-7)
    assert j22 == pytest.approx((di_p - di_m) / (2 * h), rel=1e-5, abs=1e-7)


def test_sliding_stability_reference_values():
    rep = stability_sliding(ModelParams(1.0, 1.0, 0.5), 0.2)
    assert rep.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert rep.a_plus == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert rep.a_minus == pytest.approx(4.0, abs=1e-12)
    assert rep.eigenvalues is None


def test_sliding_stability_requires_admissible_point():
    # threshold above the natural endemic level: the line is not invariant
    with pytest.raises(HypothesisViolated):
        stability_sliding(ModelParams(1.0, 1.0, 0.5), 0.5)


def test_normal_form_partials_match_finite_differences():
    nf = sliding_normal_form(ModelParams(1.7, 0.6, 0.9), 0.25)
    h = 1e-6
    fd = lambda f, g: (f - g) / (2 * h)
    assert nf.p_x == pytest.approx(fd(nf.p_plus(h, 0), nf.p_plus(-h, 0)), rel=1e-6)
    assert nf.p_x == pytest.approx(fd(nf.p_minus(h, 0), nf.p_minus(-h, 0)), rel=1e-6)
    assert nf.p_plus_y == pytest.approx(fd(nf.p_plus(0, h), nf.p_plus(0, -h)), rel=1e-6)
    assert nf.p_minus_y == pytest.approx(
        fd(nf.p_minus(0, h), nf.p_minus(0, -h)), rel=1e-6
    )
    assert nf.q_x == pytest.approx(fd(nf.q(h, 0), nf.q(-h, 0)), rel=1e-6)
    assert nf.q_y == pytest.approx(fd(nf.q(0, h), nf.q(0, -h)), abs=1e-6)
    assert nf.q_xx == pytest.approx(
        (nf.q(h, 0) - 2 * nf.q(0, 0) + nf.q(-h, 0)) / h**2, abs=1e-4
    )
    assert nf.p_plus_0 == pytest.approx(nf.p_plus(0.0, 0.0))
    assert nf.p_minus_0 == pytest.approx(nf.p_minus(0.0, 0.0))


def test_normal_form_sides_agree_with_field():
    """P/Q are the (s, i) field pushed through x = delta/beta - s, y = i - i*."""
    p = ModelParams(1.0, 1.0, 0.5)
    i_star = 0.2
    nf = sliding_normal_form(p, i_star)
    x, y = 0.07, 0.04
    s, i = p.delta / p.beta - x, i_star + y
    above = field(p, StepResponse(i_star - 2 * y), State(s, i))  # forces p_sp=1 side
    below = field(p, StepResponse(i_star + 2 * y), State(s, i))  # forces p_ps=1 side
    assert nf.p_plus(x, y) == pytest.approx(-above.ds)
    assert nf.p_minus(x, y) == pytest.approx(-below.ds)
    assert nf.q(x, y) == pytest.approx(above.di)
    assert nf.q(x, y) == pytest.approx(below.di)


@given(rates, rates, rates, st.floats(1e-3, 1.0))
def test_sliding_point_always_stable_when_admissible(beta, gamma, delta, i_star):
    p = ModelParams(beta, gamma, delta)
    try:
        rep = stability_sliding(p, i_star)
    except HypothesisViolated:
        return
    assert rep.a_plus < 0.0 < rep.a_minus
    assert rep.verdict is Verdict.ASYMPTOTICALLY_STABLE


# ------------------------------------------------------------------- sweep


def test_sweep_closed_form_and_saturation():
    beta, delta, i_star = 1.0, 0.5, 0.3
    grid = np.logspace(-2, 2, 50)
    rows = equilibrium_infection_vs_gamma(beta, delta, i_star, grid)
    assert len(rows) == 50
    for row in rows:
        free = (1.0 - delta / beta) / (1.0 + delta / row.gamma)
        assert row.i_eq == pytest.approx(min(free, i_star), abs=1e-12)
        expected_kind = (
            EquilibriumKind.ENDEMIC if free < i_star else EquilibriumKind.SLIDING
        )
        assert row.kind is expected_kind
    levels = [row.i_eq for row in rows]
    assert levels == sorted(levels)
    assert levels[-1] == pytest.approx(i_star)


def test_sweep_zero_when_no_epidemic():
    rows = equilibrium_infection_vs_gamma(0.5, 1.0, 0.3, [0.1, 1.0, 10.0])
    assert all(row.i_eq == 0.0 for row in rows)
    assert all(row.kind is EquilibriumKind.DISEASE_FREE for row in rows)


def test_sweep_at_gamma_zero_is_disease_free_like_find_equilibria_step():
    # with gamma = 0 the whole line i = 0 is stationary: no endemic point
    (row,) = equilibrium_infection_vs_gamma(1.0, 0.5, 0.3, [0.0])
    last = find_equilibria_step(ModelParams(beta=1.0, gamma=0.0, delta=0.5), 0.3)[-1]
    assert row.kind is last.kind is EquilibriumKind.DISEASE_FREE
    assert row.i_eq == last.point.i == 0.0
    # gamma = delta = 0 makes the closed form 0 / 0
    (row,) = equilibrium_infection_vs_gamma(1.0, 0.0, 0.3, [0.0])
    assert (row.i_eq, row.kind) == (0.0, EquilibriumKind.DISEASE_FREE)


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        equilibrium_infection_vs_gamma(1.0, 0.5, 0.0, [1.0])
    with pytest.raises(ValueError):
        equilibrium_infection_vs_gamma(1.0, 0.5, 0.3, [-1.0])
