import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epiresponse.integrator import dulac_scan
from epiresponse.model import (
    DOMAIN_SLACK,
    ConstantResponse,
    FieldPoint,
    FieldSegment,
    ModelParams,
    SigmoidResponse,
    State,
    StepResponse,
    TabulatedResponse,
    compile_field,
    compile_response,
    eval_response_selected,
    field,
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
    resp = compile_response(spec)
    assert resp(0.39) == (0.0, 1.0)
    assert resp(0.41) == (1.0, 0.0)
    # on the threshold the field spans both one-sided limits: p_sp and p_ps
    # each range over the whole of [0, 1]
    s, i = 0.5, 0.4
    v = field(P, spec, State(s, i))
    assert isinstance(v, FieldSegment)
    assert v.ds_lo == -s * i - s  # p_sp = 1, p_ps = 0
    assert v.ds_hi == -s * i + (1.0 - s - i)  # p_sp = 0, p_ps = 1
    # the canonical selection is the limit from below
    assert resp(0.4) == (0.0, 1.0)
    assert eval_response_selected(spec, 0.4) == (0.0, 1.0)


def test_sigmoid_ramp():
    resp = compile_response(SigmoidResponse(0.5, 0.2))
    assert resp(0.4) == (0.0, 1.0)
    # (0.6 - 0.4)/0.2 rounds to 1 - 2**-52 on the right edge; past it the
    # clamp gives exactly 1
    assert resp(0.6) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert resp(0.6 + 1e-12) == (1.0, 0.0)
    p_sp, p_ps = resp(0.5)
    assert p_sp == pytest.approx(0.5)
    assert p_ps == pytest.approx(0.5)
    p_sp, _ = resp(0.45)
    assert p_sp == pytest.approx(0.25)


def test_sigmoid_tends_to_step():
    step = StepResponse(0.3)
    tight = SigmoidResponse(0.3, 1e-9)
    for i in (0.1, 0.29, 0.31, 0.9):
        assert compile_response(tight)(i) == compile_response(step)(i)


def test_tabulated_interpolates_and_clamps():
    spec = TabulatedResponse(
        knots=(0.2, 0.4, 0.8), p_sp=(0.0, 0.5, 1.0), p_ps=(1.0, 0.5, 0.0)
    )
    resp = compile_response(spec)
    assert resp(0.3) == (pytest.approx(0.25), pytest.approx(0.75))
    assert resp(0.0) == (0.0, 1.0)
    assert resp(1.0) == (1.0, 0.0)


@given(st.floats(0.0, 1.0))
def test_response_probabilities_stay_in_unit_interval(i):
    for spec in (
        SigmoidResponse(0.37, 0.11),
        TabulatedResponse((0.1, 0.5, 0.9), (0.0, 0.2, 0.9), (1.0, 0.6, 0.1)),
        ConstantResponse(0.3, 0.8),
    ):
        p_sp, p_ps = compile_response(spec)(i)
        assert 0.0 <= p_sp <= 1.0
        assert 0.0 <= p_ps <= 1.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_monotone_in_infection_level(i1, i2):
    lo, hi = min(i1, i2), max(i1, i2)
    for spec in (
        SigmoidResponse(0.5, 0.25),
        TabulatedResponse((0.0, 0.5, 1.0), (0.0, 0.1, 0.8), (0.9, 0.4, 0.0)),
    ):
        resp = compile_response(spec)
        sp_lo, ps_lo = resp(lo)
        sp_hi, ps_hi = resp(hi)
        assert sp_lo <= sp_hi
        assert ps_lo >= ps_hi


# ------------------------------------------------- compiled scalar kernel
#
# Independent references: `np.interp` for tabulated responses (the kernel
# must reproduce it bit for bit), closed forms for the other variants.

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
        want = (
            float(np.interp(x, spec.knots, spec.p_sp)),
            float(np.interp(x, spec.knots, spec.p_ps)),
        )
        assert resp(x) == want
        assert eval_response_selected(spec, x) == want


@given(st.floats(0.01, 1.0), QUERY)
def test_compiled_step_matches_reference_exactly(i_star, i):
    resp = compile_response(StepResponse(i_star))
    for x in (i, *_around(i_star)):
        assert resp(x) == ((1.0, 0.0) if x > i_star else (0.0, 1.0))
    assert resp(i_star) == (0.0, 1.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), QUERY)
def test_compiled_constant_matches_reference_exactly(p_sp, p_ps, i):
    assert compile_response(ConstantResponse(p_sp, p_ps))(i) == (p_sp, p_ps)


@given(st.floats(0.01, 1.0), st.floats(1e-3, 1.0), QUERY)
def test_compiled_sigmoid_matches_reference_to_rounding(i_star, eps, i):
    # Not ==: the kernel computes (i - lo)/eps with lo = i_star - eps/2
    # rounded once, the closed form (i - i_star + eps/2)/eps; the two differ
    # by a few ulps of i over eps, below 1e-12 for eps >= 1e-3.
    resp = compile_response(SigmoidResponse(i_star, eps))
    for x in (i, i_star, *_around(i_star - 0.5 * eps), *_around(i_star + 0.5 * eps)):
        p_sp = min(max((x - i_star + 0.5 * eps) / eps, 0.0), 1.0)
        assert resp(x) == pytest.approx((p_sp, 1.0 - p_sp), abs=1e-12, rel=0.0)


def test_compile_response_rejects_unknown_spec():
    with pytest.raises(TypeError):
        compile_response((0.0, 1.0))


def test_array_evaluation_rejects_step():
    # The grid evaluation of a response (the Dulac divergence scan) needs a
    # single-valued response: a step is refused by its type, even when no grid
    # point lands on the threshold, while a steep sigmoid is accepted.
    for i_star in (0.5, 0.123):
        with pytest.raises(TypeError):
            dulac_scan(P, StepResponse(i_star), 10)
    assert math.isfinite(dulac_scan(P, SigmoidResponse(0.123, 1e-3), 10))


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


def test_compiled_field_matches_closed_form():
    s, i = 0.3, 0.25
    for spec in (
        StepResponse(0.5),
        SigmoidResponse(0.2, 0.2),
        TabulatedResponse((0.0, 1.0), (0.0, 0.8), (1.0, 0.0)),
        ConstantResponse(0.3, 0.6),
    ):
        p_sp, p_ps = compile_response(spec)(i)
        ds, di = compile_field(P, spec)(s, i)
        assert ds == pytest.approx(-s * i - s * p_sp + (1.0 - s - i) * p_ps, abs=1e-15)
        assert di == pytest.approx((s - 0.5) * i, abs=1e-15)
        assert field(P, spec, State(s, i)) == FieldPoint(ds, di)
