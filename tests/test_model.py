import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epiresponse.model import (
    DOMAIN_SLACK,
    ClassSpec,
    ConstantResponse,
    FieldPoint,
    FieldSegment,
    Interval,
    ModelParams,
    MultiClassState,
    SigmoidResponse,
    State,
    StepResponse,
    TabulatedResponse,
    compile_response,
    eval_response,
    eval_response_arrays,
    eval_response_selected,
    field,
    field_multiclass,
    response_slopes,
)

P = ModelParams(beta=1.0, gamma=1.0, delta=0.5)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta=0.0, gamma=1.0, delta=0.5),
        dict(beta=-1.0, gamma=1.0, delta=0.5),
        dict(beta=1.0, gamma=-0.1, delta=0.5),
        dict(beta=1.0, gamma=1.0, delta=0.0),
        dict(beta=float("nan"), gamma=1.0, delta=0.5),
        dict(beta=float("inf"), gamma=1.0, delta=0.5),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_gamma_zero_is_allowed():
    # gamma = 0 removes the protection dynamics entirely (plain SIR)
    ModelParams(beta=2.0, gamma=0.0, delta=1.0)


def test_state_simplex():
    s = State(0.3, 0.3)
    assert s.p == pytest.approx(0.4)
    with pytest.raises(ValueError):
        State(0.7, 0.5)
    with pytest.raises(ValueError):
        State(-0.1, 0.5)
    with pytest.raises(ValueError):
        State(0.1, float("nan"))
    # a touch of integrator round-off is absorbed
    State(1.0 + 0.5 * DOMAIN_SLACK, 0.0)


@pytest.mark.parametrize("i_star", [0.0, -0.2, 1.1])
def test_step_threshold_range(i_star):
    with pytest.raises(ValueError):
        StepResponse(i_star)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedResponse(knots=(0.0,), p_sp=(0.0,), p_ps=(1.0,))
    with pytest.raises(ValueError):
        TabulatedResponse(knots=(0.0, 0.0), p_sp=(0.0, 1.0), p_ps=(1.0, 0.0))
    with pytest.raises(ValueError):
        TabulatedResponse(knots=(0.0, 1.0), p_sp=(1.0, 0.0), p_ps=(1.0, 0.0))
    with pytest.raises(ValueError):
        TabulatedResponse(knots=(0.0, 1.0), p_sp=(0.0, 1.5), p_ps=(1.0, 0.0))
    TabulatedResponse(knots=(0.0, 0.5, 1.0), p_sp=(0.0, 0.5, 1.0), p_ps=(1.0, 0.5, 0.0))


# ---------------------------------------------------------------- responses


def test_step_is_set_valued_at_threshold():
    spec = StepResponse(0.4)
    assert eval_response(spec, 0.39) == (0.0, 1.0)
    assert eval_response(spec, 0.41) == (1.0, 0.0)
    p_sp, p_ps = eval_response(spec, 0.4)
    assert p_sp == Interval(0.0, 1.0)
    assert p_ps == Interval(0.0, 1.0)
    # the canonical selection is the limit from below
    assert eval_response_selected(spec, 0.4) == (0.0, 1.0)


def test_sigmoid_ramp():
    spec = SigmoidResponse(0.5, 0.2)
    assert eval_response(spec, 0.4) == (0.0, 1.0)
    assert eval_response(spec, 0.6) == (1.0, 0.0)
    p_sp, p_ps = eval_response(spec, 0.5)
    assert p_sp == pytest.approx(0.5)
    assert p_ps == pytest.approx(0.5)
    p_sp, _ = eval_response(spec, 0.45)
    assert p_sp == pytest.approx(0.25)


def test_sigmoid_tends_to_step():
    step = StepResponse(0.3)
    tight = SigmoidResponse(0.3, 1e-9)
    for i in (0.1, 0.29, 0.31, 0.9):
        assert eval_response(tight, i) == eval_response(step, i)


def test_tabulated_interpolates_and_clamps():
    spec = TabulatedResponse(
        knots=(0.2, 0.4, 0.8), p_sp=(0.0, 0.5, 1.0), p_ps=(1.0, 0.5, 0.0)
    )
    assert eval_response(spec, 0.3) == (pytest.approx(0.25), pytest.approx(0.75))
    assert eval_response(spec, 0.0) == (0.0, 1.0)
    assert eval_response(spec, 1.0) == (1.0, 0.0)


@given(st.floats(0.0, 1.0))
def test_response_probabilities_stay_in_unit_interval(i):
    for spec in (
        SigmoidResponse(0.37, 0.11),
        TabulatedResponse((0.1, 0.5, 0.9), (0.0, 0.2, 0.9), (1.0, 0.6, 0.1)),
        ConstantResponse(0.3, 0.8),
    ):
        p_sp, p_ps = eval_response(spec, i)
        assert 0.0 <= p_sp <= 1.0
        assert 0.0 <= p_ps <= 1.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_monotone_in_infection_level(i1, i2):
    lo, hi = min(i1, i2), max(i1, i2)
    for spec in (
        SigmoidResponse(0.5, 0.25),
        TabulatedResponse((0.0, 0.5, 1.0), (0.0, 0.1, 0.8), (0.9, 0.4, 0.0)),
    ):
        sp_lo, ps_lo = eval_response(spec, lo)
        sp_hi, ps_hi = eval_response(spec, hi)
        assert sp_lo <= sp_hi
        assert ps_lo >= ps_hi


def test_array_evaluation_matches_scalar():
    grid = np.linspace(0.0, 1.0, 101)
    for spec in (
        SigmoidResponse(0.42, 0.07),
        TabulatedResponse((0.1, 0.6), (0.0, 1.0), (1.0, 0.2)),
        ConstantResponse(0.25, 0.5),
    ):
        p_sp, p_ps = eval_response_arrays(spec, grid)
        for k, i in enumerate(grid):
            s, r = eval_response(spec, float(i))
            assert p_sp[k] == pytest.approx(s, abs=1e-15)
            assert p_ps[k] == pytest.approx(r, abs=1e-15)


# ------------------------------------------------- compiled scalar kernel
#
# `eval_response_selected` is the reference: the compiled kernel must return
# exactly what it returns, so that engines switching to the kernel keep
# their outputs byte for byte.

QUERY = st.floats(-1.0, 2.0)


@st.composite
def tabulated_responses(draw):
    knots = sorted(draw(st.sets(st.floats(-0.5, 1.5), min_size=2, max_size=8)))
    values = st.lists(st.floats(0.0, 1.0), min_size=len(knots), max_size=len(knots))
    p_sp = sorted(draw(values))
    p_ps = sorted(draw(values), reverse=True)
    return TabulatedResponse(tuple(knots), tuple(p_sp), tuple(p_ps))


def _around(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


@given(tabulated_responses(), QUERY)
def test_compiled_tabulated_matches_reference_exactly(spec, i):
    resp = compile_response(spec)
    probes = [i, spec.knots[0] - 0.5, spec.knots[-1] + 0.5]
    for knot in spec.knots:
        probes.extend(_around(knot))
    for x in probes:
        assert resp(x) == eval_response_selected(spec, x)


@given(st.floats(0.01, 1.0), QUERY)
def test_compiled_step_matches_reference_exactly(i_star, i):
    spec = StepResponse(i_star)
    resp = compile_response(spec)
    for x in (i, *_around(i_star)):
        assert resp(x) == eval_response_selected(spec, x)
    assert resp(i_star) == (0.0, 1.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), QUERY)
def test_compiled_constant_matches_reference_exactly(p_sp, p_ps, i):
    spec = ConstantResponse(p_sp, p_ps)
    assert compile_response(spec)(i) == eval_response_selected(spec, i)


@given(st.floats(0.01, 1.0), st.floats(1e-3, 1.0), QUERY)
def test_compiled_sigmoid_matches_reference_to_rounding(i_star, eps, i):
    # Not ==: the kernel computes (i - lo)/eps with lo = i_star - eps/2
    # rounded once, the reference (i - i_star + eps/2)/eps; the two differ
    # by a few ulps of i over eps, below 1e-12 for eps >= 1e-3.
    spec = SigmoidResponse(i_star, eps)
    resp = compile_response(spec)
    for x in (i, i_star, *_around(i_star - 0.5 * eps), *_around(i_star + 0.5 * eps)):
        got, want = resp(x), eval_response_selected(spec, x)
        assert got == pytest.approx(want, abs=1e-12, rel=0.0)


def test_compile_response_rejects_unknown_spec():
    with pytest.raises(TypeError):
        compile_response(Interval(0.0, 1.0))


def test_array_evaluation_rejects_step():
    with pytest.raises(TypeError):
        eval_response_arrays(StepResponse(0.5), np.linspace(0, 1, 5))


def test_slopes_right_convention():
    spec = SigmoidResponse(0.5, 0.2)
    assert response_slopes(spec, 0.3) == (0.0, 0.0)
    assert response_slopes(spec, 0.4) == (5.0, -5.0)  # left edge: ramp starts here
    assert response_slopes(spec, 0.5) == (5.0, -5.0)
    assert response_slopes(spec, 0.6) == (0.0, 0.0)  # right edge: ramp just ended

    tab = TabulatedResponse((0.2, 0.4, 0.8), (0.0, 0.5, 1.0), (1.0, 0.5, 0.0))
    assert response_slopes(tab, 0.4) == (pytest.approx(1.25), pytest.approx(-1.25))
    assert response_slopes(tab, 0.1) == (0.0, 0.0)
    assert response_slopes(tab, 0.8) == (0.0, 0.0)
    assert response_slopes(StepResponse(0.5), 0.5) == (0.0, 0.0)


# ---------------------------------------------------------------- the field


def test_field_smooth_point():
    # below the threshold everyone unprotects: ds = -b*s*i + g*(1-s-i)
    v = field(P, StepResponse(0.5), State(0.6, 0.2))
    assert isinstance(v, FieldPoint)
    assert v.ds == pytest.approx(-1.0 * 0.6 * 0.2 + 1.0 * 0.2)
    assert v.di == pytest.approx((1.0 * 0.6 - 0.5) * 0.2)


def test_field_segment_on_discontinuity_line():
    v = field(P, StepResponse(0.5), State(0.5, 0.5))
    assert isinstance(v, FieldSegment)
    assert v.ds_lo == pytest.approx(-0.75)
    assert v.ds_hi == pytest.approx(-0.25)
    assert v.di == pytest.approx(0.0)


def test_segment_distance_to_zero():
    assert FieldSegment(-1.0, 1.0, 0.0).distance_to_zero() == 0.0
    assert FieldSegment(0.5, 1.0, 0.0).distance_to_zero() == 0.5
    assert FieldSegment(-1.0, -0.25, 0.1).distance_to_zero() == 0.25
    with pytest.raises(ValueError):
        FieldSegment(1.0, 0.5, 0.0)


def test_field_sigmoid_inside_ramp():
    spec = SigmoidResponse(0.5, 0.2)
    x = State(0.3, 0.5)
    v = field(P, spec, x)
    # p_sp = p_ps = 1/2 at the centre
    expected = -0.3 * 0.5 - 1.0 * 0.3 * 0.5 + 1.0 * (1 - 0.8) * 0.5
    assert v.ds == pytest.approx(expected)


# ---------------------------------------------------------------- multiclass


def test_multiclass_weights_must_sum_to_one():
    specs = [ClassSpec(0.5, StepResponse(0.1)), ClassSpec(0.4, StepResponse(0.9))]
    x = MultiClassState(((0.4, 0.05), (0.3, 0.05)))
    with pytest.raises(ValueError):
        field_multiclass(P, specs, x)


def test_multiclass_couples_through_total_infection():
    # class 1 has a low threshold: the *total* infected fraction is what
    # pushes it over, even if its own infected share is tiny
    specs = [ClassSpec(0.5, StepResponse(0.1)), ClassSpec(0.5, StepResponse(0.9))]
    x = MultiClassState(((0.4, 0.01), (0.3, 0.19)))
    v1, v2 = field_multiclass(P, specs, x)
    i_tot = 0.2
    # class 1 protects (p_sp=1, p_ps=0): ds1 = -b*s1*I - g*s1
    assert v1.ds == pytest.approx(-0.4 * i_tot - 1.0 * 0.4)
    assert v1.di == pytest.approx(0.4 * i_tot - 0.5 * 0.01)
    # class 2 stays out (p_sp=0, p_ps=1): ds2 = -b*s2*I + g*(a2 - s2 - i2)
    assert v2.ds == pytest.approx(-0.3 * i_tot + 1.0 * (0.5 - 0.3 - 0.19))
    assert v2.di == pytest.approx(0.3 * i_tot - 0.5 * 0.19)


def test_multiclass_fraction_cap():
    specs = [ClassSpec(0.5, StepResponse(0.5)), ClassSpec(0.5, StepResponse(0.5))]
    x = MultiClassState(((0.45, 0.1), (0.2, 0.1)))  # class 1 exceeds its weight
    with pytest.raises(ValueError):
        field_multiclass(P, specs, x)


def test_multiclass_agrees_with_single_class():
    spec = StepResponse(0.5)
    x = State(0.6, 0.2)
    single = field(P, spec, x)
    (multi,) = field_multiclass(
        P, [ClassSpec(1.0, spec)], MultiClassState(((0.6, 0.2),))
    )
    assert multi.ds == pytest.approx(single.ds)
    assert multi.di == pytest.approx(single.di)
