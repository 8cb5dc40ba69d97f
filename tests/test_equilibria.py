import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from epiresponse.equilibria import (
    BOUNDARY_EPS,
    Equilibrium,
    EquilibriumKind,
    HypothesisViolated,
    StabilityReport,
    Verdict,
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
    _jump,
    compile_response,
    eval_response_selected,
    field,
    response_pieces,
    response_slopes,
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


@example(beta=1.0, gamma=1.0, delta=0.9999999999999999, i_star=0.5)
@given(rates, rates, rates, st.floats(1e-3, 1.0))
def test_step_partition_is_exhaustive_and_exclusive(beta, gamma, delta, i_star):
    p = ModelParams(beta, gamma, delta)
    eqs = find_equilibria_step(p, i_star)
    ks = kinds(eqs)
    assert ks[0] is EquilibriumKind.DISEASE_FREE
    # delta/beta within one rounding of 1 puts X1 on X0 up to round-off:
    # it is folded into X0, as at delta == beta
    if delta >= beta or 1.0 - delta / beta <= 2.0**-52:
        assert len(eqs) == 1
        assert eqs[0].degenerate is (delta <= beta)
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


def _reference_step(params, i_star):
    """The closed-form step solver that `find_equilibria` replaced: the
    reference its step outputs must equal bit for bit."""
    beta, gamma, delta = params.beta, params.gamma, params.delta
    s_eq = delta / beta
    degenerate = gamma == 0.0 or (delta <= beta and 1.0 - s_eq <= 2.0**-52)
    out = [Equilibrium(EquilibriumKind.DISEASE_FREE, State(1.0, 0.0), degenerate=degenerate)]
    if delta >= beta or degenerate:
        return out
    i1 = gamma * (1.0 - delta / beta) / (gamma + delta)
    if i1 < i_star:
        out.append(Equilibrium(EquilibriumKind.ENDEMIC, State(s_eq, i1)))
    else:
        den = gamma * (1.0 - s_eq - i_star)
        aux = delta * i_star / den if den > 0.0 else 1.0
        out.append(
            Equilibrium(
                EquilibriumKind.SLIDING,
                State(s_eq, i_star),
                aux=aux,
                boundary=(i_star == i1),
            )
        )
    return out


def _bits(eqs):
    """Every float of a list of equilibria, as hex: == lets 0.0 equal -0.0."""
    return [
        (eq.point.s.hex(), eq.point.i.hex(), None if eq.aux is None else eq.aux.hex())
        for eq in eqs
    ]


@st.composite
def step_cases(draw):
    """Rates and a threshold, drawn onto the ties the step rules turn on:
    delta == beta, delta = beta*(1 +- 2^-52), delta > beta, gamma == 0,
    subnormal gamma, i_star == I1 exactly and i_star = 1."""
    wide = st.floats(1e-300, 1e300)
    beta = draw(rates | wide)
    gamma = draw(rates | wide | st.just(0.0) | st.floats(0.0, 1e-300))
    delta = draw(
        rates
        | wide
        | st.sampled_from([beta, beta * (1.0 + 2.0**-52), beta * (1.0 - 2.0**-52)])
        | rates.map(lambda f: beta * (1.0 + f))
    )
    assume(delta > 0.0)
    i1 = gamma * (1.0 - delta / beta) / (gamma + delta)
    i_star = draw(st.floats(1e-3, 1.0) | st.sampled_from([1.0, i1]))
    assume(0.0 < i_star <= 1.0)
    return ModelParams(beta, gamma, delta), i_star


@settings(max_examples=300)
@given(step_cases())
def test_step_equilibria_equal_the_closed_form_reference(case):
    params, i_star = case
    got = find_equilibria(params, StepResponse(i_star))
    want = _reference_step(params, i_star)
    assert got == want
    assert _bits(got) == _bits(want)


def test_step_endemic_level_survives_an_overflowing_gamma_plus_delta():
    # gamma + delta = 2e308 overflows; I1 = gamma*m/(gamma + delta) with
    # m = 1 - delta/beta = 1/3 is 1/6, not gamma*m/inf = 0
    eqs = find_equilibria(ModelParams(1.5e308, 1e308, 1e308), StepResponse(0.5))
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE, EquilibriumKind.ENDEMIC]
    assert eqs[-1].point.i == pytest.approx(1.0 / 6.0, rel=1e-15)


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
    x1 = find_equilibria(p, spec)[-1]
    assert x1.kind is EquilibriumKind.ENDEMIC
    assert x1.point.i == pytest.approx(expected, abs=1e-15)
    assert abs(g_function(p, spec, x1.point.i)) < 1e-15
    assert x1.point.s == delta / beta


def test_no_root_when_protection_dominates_at_zero():
    spec = ConstantResponse(p_sp=1.0, p_ps=0.01)
    p = ModelParams(1.0, 1.0, 0.5)
    assert g_function(p, spec, 0.0) < 0.0
    (x0,) = find_equilibria_continuous(p, spec)
    assert x0.kind is EquilibriumKind.DISEASE_FREE
    assert not x0.degenerate


@pytest.mark.parametrize(
    "spec", [SigmoidResponse(0.5, 0.125), ConstantResponse(0.0, 1.0)]
)
def test_endemic_point_within_round_off_of_x0_folds_into_it(spec):
    # s0 = 1 and delta/beta = 1 - 2^-53: g(0) > 0 by one rounding, and
    # the root would sit at i ~ 1e-16, on X0 up to round-off
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.9999999999999999)
    assert g_function(p, spec, 0.0) > 0.0
    (x0,) = find_equilibria_continuous(p, spec)
    assert x0.point == State(1.0, 0.0)
    assert x0.degenerate


def test_degenerate_root_at_zero():
    # tune p_sp so g(0) = 0 exactly: p_sp = (beta/delta - 1) * p_ps
    p = ModelParams(beta=1.0, gamma=1.0, delta=0.5)
    spec = ConstantResponse(p_sp=0.5, p_ps=0.5)
    assert g_function(p, spec, 0.0) == 0.0
    eqs = find_equilibria_continuous(p, spec)
    assert kinds(eqs) == [EquilibriumKind.DISEASE_FREE]
    assert eqs[0].degenerate


def test_g_keeps_its_infection_term_where_delta_over_beta_underflows():
    # delta/beta = 1e-608 underflows to 0; g(0.6) = -delta*0.6 - gamma*delta/beta,
    # about -1.6e-300, not the 0 that a field at s = delta/beta would give
    p = ModelParams(beta=1e308, gamma=1e308, delta=1e-300)
    assert g_function(p, SigmoidResponse(0.5, 0.1), 0.6) < 0.0


def test_zero_pressure_response_rejected():
    with pytest.raises(ValueError, match="decision pressure"):
        find_equilibria_continuous(
            ModelParams(1.0, 1.0, 0.5), ConstantResponse(0.0, 0.0)
        )


def test_continuous_rejects_step():
    with pytest.raises(TypeError):
        find_equilibria_continuous(ModelParams(1.0, 1.0, 0.5), StepResponse(0.3))


@st.composite
def narrow_responses(draw):
    """A sigmoid, tabulated or constant response with decision pressure at
    i = 0, whose pieces may be as narrow as 1e-300."""
    kind = draw(st.sampled_from(("sigmoid", "tabulated", "constant")))
    unit = st.floats(0.0, 1.0)
    tiny = st.floats(1e-300, 1e-250)
    if kind == "constant":
        p_sp, p_ps = draw(unit), draw(unit)
        assume(p_sp + p_ps > 0.0)
        return ConstantResponse(p_sp, p_ps)
    if kind == "sigmoid":
        return SigmoidResponse(draw(st.floats(1e-3, 1.0) | tiny), draw(st.floats(1e-3, 1.0) | tiny))
    knots = sorted(draw(st.lists(unit | tiny, min_size=2, max_size=6, unique=True)))
    column = st.lists(unit, min_size=len(knots), max_size=len(knots))
    p_sp, p_ps = sorted(draw(column)), sorted(draw(column), reverse=True)
    assume(p_sp[0] + p_ps[0] > 0.0)
    return TabulatedResponse(tuple(knots), tuple(p_sp), tuple(p_ps))


@settings(max_examples=200)
@given(narrow_responses())
def test_only_an_empty_ramp_makes_a_narrow_response_jump(spec):
    """A table, a constant and a ramp that holds a float move continuously:
    the row table reports no jump.  A ramp whose ends both round to i_star
    jumps there, as its step does."""
    if isinstance(spec, SigmoidResponse):
        half = 0.5 * spec.epsilon
        if spec.i_star - half == spec.i_star + half:
            assert _jump(spec) == spec.i_star
            return
    assert _jump(spec) is None


def _g_monomials(params, piece):
    """The terms of g(x0 + u) = c0 + B*u + A*u^2 on ``piece``, exact from the
    floats q = delta/beta and m = 1 - q: (terms of c0, terms of B, A).
    Only c0 is given for a piece with an infinite slope."""
    q = params.delta / params.beta
    gamma, delta, q, m = map(Fraction, (params.gamma, params.delta, q, 1.0 - q))
    x0, _, sp0, b, ps0, d = piece
    x0, sp0, ps0 = map(Fraction, (x0, sp0, ps0))
    c0 = (-delta * x0, -gamma * q * sp0, gamma * (m - x0) * ps0)
    if not (math.isfinite(b) and math.isfinite(d)):
        return c0, None, None
    b, d = Fraction(b), Fraction(d)
    return c0, (gamma * (m - x0) * d, -gamma * ps0, -delta, -gamma * q * b), -gamma * d


@settings(max_examples=300, deadline=None)
@example(
    beta=1.0,
    gamma=1.0,
    delta=0.5,
    spec=TabulatedResponse((0.0, 3.48e-136), (0.0, 0.0), (1.0, 0.0)),
)
@example(  # the root formula rounds one ulp past the knot: kept on the piece
    beta=3.1053341706482973,
    gamma=0.9717191147565911,
    delta=0.35320464258526835,
    spec=TabulatedResponse((0.0, 9.89104627573104e-262), (0.0, 0.0), (1.0, 0.0)),
)
@given(beta=rates, gamma=rates, delta=rates, spec=narrow_responses())
def test_endemic_point_is_the_exact_root_on_its_piece(beta, gamma, delta, spec):
    """X1 lies on the piece where g changes sign (judged from exact values
    at the piece starts); g vanishes there to 4 ulps of each of its
    monomials at i = X1, plus its change over one ulp of X1; and `brentq`
    on that piece agrees to 1e-13.  (A piece narrower than about 1e-308
    has an infinite slope; X1 then only has to lie on it.)"""
    p = ModelParams(beta, gamma, delta)
    x1 = find_equilibria(p, spec)[-1]
    assume(x1.kind is EquilibriumKind.ENDEMIC)
    root = x1.point.i
    pieces = response_pieces(spec)
    starts = [sum(_g_monomials(p, piece)[0]) for piece in pieces]
    k = max(j for j, g in enumerate(starts) if j == 0 or g > 0)
    lo, hi = pieces[k][:2]
    assert lo <= root <= hi
    c0, b, a = _g_monomials(p, pieces[k])
    if b is None:
        return
    u, i = Fraction(root) - Fraction(lo), Fraction(root)
    monomials = [*c0, *(t * i for t in b), a * i * i]
    slope = sum(map(abs, b)) + 2 * abs(a) * i
    tol = 4 * sum(Fraction(math.ulp(float(abs(t)))) for t in monomials)
    assert abs(sum(c0) + sum(b) * u + a * u * u) <= tol + slope * Fraction(math.ulp(root))
    g = lambda x: g_function(p, spec, x)
    if g(lo) > 0.0 > g(hi):
        assert abs(brentq(g, lo, hi, xtol=1e-15, rtol=4 * 2.0**-52) - root) <= 1e-13
    else:  # g rounds to 0 at an end, within an ulp of the root
        assert min(root - lo, hi - root) <= 1e-13


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


def test_endemic_point_for_sigmoid_lies_in_ramp_or_below():
    p = ModelParams(1.0, 1.0, 0.5)
    spec = SigmoidResponse(0.2, 0.05)
    x1 = find_equilibria(p, spec)[-1]
    assert x1.kind is EquilibriumKind.ENDEMIC
    # natural level 1/3 exceeds the threshold band, so the root is pinned
    # inside the ramp where protection kicks in
    assert 0.175 <= x1.point.i <= 0.225
    assert abs(g_function(p, spec, x1.point.i)) < 1e-15


def test_root_on_a_piece_narrower_than_the_old_bisection_tolerance():
    # p_ps falls from 1 to 0 across [0, 3.48e-136]; g vanishes (to
    # rounding) on the knot, where a bisection to 1e-12 stopped at 4.5e-13
    spec = TabulatedResponse((0.0, 3.48e-136), (0.0, 0.0), (1.0, 0.0))
    x0, x1 = find_equilibria(ModelParams(1.0, 1.0, 0.5), spec)
    assert x1.kind is EquilibriumKind.ENDEMIC
    assert x1.point.i == 3.48e-136


def test_root_survives_an_overflowing_gamma_times_slope():
    # gamma*slope = -1e309 overflows, and delta/beta underflows to 0, so
    # the field on s = delta/beta loses its -delta*i term: g is the
    # product gamma*(1 - i)*p_ps(i), whose root is the ramp's end 0.55
    p = ModelParams(beta=1e308, gamma=1e308, delta=1e-300)
    spec = SigmoidResponse(0.5, 0.1)
    x1 = find_equilibria(p, spec)[-1]
    assert x1.kind is EquilibriumKind.ENDEMIC
    assert x1.point.i == 0.5 + 0.05


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
    # An admissible endemic point is never unstable or a saddle.  Near the
    # transcritical bifurcation at beta = delta the verdict may be
    # boundary; the test decides which from an independent eigenvalue
    # solve.  (With beta within one rounding of delta, as in the pinned
    # draw, X1 is folded into X0 and not listed.)
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
    if rep.verdict is Verdict.BOUNDARY:
        # an exact tie i_star == I1: X1 and X2 coincide
        assert find_equilibria_step(p, i_star)[-1].boundary
        return
    assert rep.a_plus < 0.0 < rep.a_minus
    assert rep.verdict is Verdict.ASYMPTOTICALLY_STABLE


def _nudged(x, ulps):
    """x moved ``ulps`` representable doubles up (ulps > 0) or down."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@example(beta=2.0, gamma=1.0, delta=1.0, i_star=0.25, ulps=None)
@example(beta=1.0, gamma=1e-300, delta=1e-308, i_star=1e-20, ulps=None)  # P+(0,0) = 0
@example(beta=1e-300, gamma=1.0, delta=1e-310, i_star=1e-30, ulps=None)  # Q_x(0,0) = -0
@given(rates, rates, rates, st.floats(1e-3, 1.0), st.none() | st.integers(-4, 4))
def test_stability_sliding_classifies_exactly_the_listed_sliding_point(
    beta, gamma, delta, i_star, ulps
):
    """stability_sliding raises iff find_equilibria_step lists no X2, and
    is BOUNDARY iff P-(0,0) or P+(0,0) is 0; ``ulps`` puts i_star within
    4 ulps of I1, where one rounding decides whether X2 exists."""
    p = ModelParams(beta, gamma, delta)
    if ulps is not None:
        i_star = _nudged(gamma * (1.0 - delta / beta) / (gamma + delta), ulps)
        assume(0.0 < i_star <= 1.0)
    listed = find_equilibria_step(p, i_star)[-1].kind is EquilibriumKind.SLIDING
    try:
        rep = stability_sliding(p, i_star)
    except HypothesisViolated:
        assert not listed
        return
    assert listed
    nf = sliding_normal_form(p, i_star)
    boundary = nf.p_minus_0 == 0.0 or nf.p_plus_0 == 0.0
    assert (rep.verdict is Verdict.BOUNDARY) is boundary
    assert (rep.a_plus is None) is (rep.a_minus is None) is boundary


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
    # delta = 0 is refused, as `ModelParams` refuses it everywhere
    with pytest.raises(ValueError):
        equilibrium_infection_vs_gamma(1.0, 0.0, 0.3, [0.0])


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        equilibrium_infection_vs_gamma(1.0, 0.5, 0.0, [1.0])
    with pytest.raises(ValueError):
        equilibrium_infection_vs_gamma(1.0, 0.5, 0.3, [-1.0])


def test_sweep_accepts_any_response_spec():
    spec = SigmoidResponse(0.3, 0.05)
    grid = [0.0, 0.1, 1.0, 10.0]
    rows = equilibrium_infection_vs_gamma(1.0, 0.5, spec, grid)
    for row, gamma in zip(rows, grid):
        last = find_equilibria(ModelParams(1.0, gamma, 0.5), spec)[-1]
        assert (row.gamma, row.i_eq, row.kind) == (gamma, last.point.i, last.kind)


@st.composite
def monotone_responses(draw):
    """A step, sigmoid or tabulated response with decision pressure at i = 0."""
    kind = draw(st.sampled_from(("step", "sigmoid", "tabulated")))
    if kind == "step":
        return StepResponse(draw(st.floats(0.01, 1.0)))
    if kind == "sigmoid":
        return SigmoidResponse(draw(st.floats(0.01, 1.0)), draw(st.floats(1e-3, 1.0)))
    knots = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True))
    column = st.lists(st.floats(0.0, 1.0), min_size=len(knots), max_size=len(knots))
    p_sp, p_ps = sorted(draw(column)), sorted(draw(column), reverse=True)
    assume(p_sp[0] + p_ps[0] > 0.0)
    return TabulatedResponse(tuple(sorted(knots)), tuple(p_sp), tuple(p_ps))


def _piece(spec, i):
    """The index of the `response_pieces` piece that holds ``i``."""
    return bisect_right([piece[0] for piece in response_pieces(spec)], i)


# Endemic roots lie within 2.5 ulps of 1 of the exact root of g (measured
# on 5,638 sweep-like models against 200-bit mpmath roots)
ROOT_ERR = 8 * 2.0**-52


@settings(max_examples=150, deadline=None)
@given(
    beta=rates,
    delta_frac=st.floats(0.02, 1.2),
    spec=monotone_responses(),
    exponents=st.lists(st.integers(-8, 8), min_size=2, max_size=9, unique=True),
)
def test_sweep_rises_with_gamma_at_the_closed_form_rate(beta, delta_frac, spec, exponents):
    """The paper's main finding for every admissible response: the level
    does not fall as gamma grows on a log grid in [1e-2, 1e2], a step level
    stays at most i_star, and on the endemic branch, wherever the stencil
    gamma +- h keeps the root on one linear piece of the response (so on
    the same `response_slopes`), a central difference with h = 1e-4*gamma
    matches the rate below to ROOT_ERR/h plus 1e-6 of the rate:

        di/dgamma = k(i)/(delta - gamma*k'(i)) > 0,
        k(i) = (1 - delta/beta - i)*p_ps(i) - (delta/beta)*p_sp(i).
    """
    delta = delta_frac * beta
    grid = [10.0 ** (k / 4.0) for k in sorted(exponents)]
    rows = equilibrium_infection_vs_gamma(beta, delta, spec, grid)
    levels = [row.i_eq for row in rows]
    assert levels == sorted(levels)
    if isinstance(spec, StepResponse):
        assert all(level <= spec.i_star for level in levels)
        return
    s_eq = delta / beta
    resp = compile_response(spec)
    for row in rows:
        if row.kind is not EquilibriumKind.ENDEMIC:
            continue
        gamma, i = row.gamma, row.i_eq
        h = 1e-4 * gamma
        stencil = equilibrium_infection_vs_gamma(beta, delta, spec, [gamma - h, gamma + h])
        lo, hi = (r.i_eq for r in stencil)
        if _piece(spec, lo) != _piece(spec, hi):
            continue
        p_sp, p_ps = resp(i)
        d_sp, d_ps = response_slopes(spec, i)
        k = (1.0 - s_eq - i) * p_ps - s_eq * p_sp
        dk = -p_ps + (1.0 - s_eq - i) * d_ps - s_eq * d_sp
        rate = k / (delta - gamma * dk)
        assert abs((hi - lo) / (2.0 * h) - rate) <= ROOT_ERR / h + 1e-6 * abs(rate)
