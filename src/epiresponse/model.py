"""Core types for an epidemic model with endogenous protection decisions.

Population fractions S (susceptible), I (infected) and P = 1 - S - I
(protected) evolve under

    dS/dt = -beta*S*I - gamma*S*p_SP(I) + gamma*(1 - S - I)*p_PS(I)
    dI/dt =  beta*S*I - delta*I

where beta is the pairwise meeting rate, delta the disinfection rate, and
gamma the rate at which agents revisit their protection decision.  The
switch probabilities p_SP (susceptible -> protected) and p_PS
(protected -> susceptible) are functions of the infected fraction I.

With an all-or-nothing threshold response the right-hand side is
discontinuous on the line L = {I = i_star} and the dynamics are read as a
differential inclusion: on L the S-rate is the closed segment spanned by
the two one-sided limits, while the I-rate is continuous across L.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Union

__all__ = [
    "DOMAIN_SLACK",
    "ModelParams",
    "State",
    "StepResponse",
    "SigmoidResponse",
    "TabulatedResponse",
    "ConstantResponse",
    "ResponseSpec",
    "CONTINUOUS_RESPONSES",
    "FieldPoint",
    "FieldSegment",
    "FieldValue",
    "ClassSpec",
    "eval_response_selected",
    "compile_response",
    "compile_field",
    "response_pieces",
    "response_slopes",
    "field",
]

# Slack used for membership tests of the unit simplex; absorbs integrator
# round-off so that states produced by adaptive steps remain constructible.
DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Per-agent event rates: meetings, decision updates, disinfection."""

    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("beta", "gamma", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class State:
    """Point (s, i) of the unit simplex D = {s, i >= 0, s + i <= 1}."""

    s: float
    i: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.i)):
            raise ValueError(f"state components must be finite: ({self.s!r}, {self.i!r})")
        if (
            self.s < -DOMAIN_SLACK
            or self.i < -DOMAIN_SLACK
            or self.s + self.i > 1.0 + DOMAIN_SLACK
        ):
            raise ValueError(f"state ({self.s}, {self.i}) lies outside the unit simplex")

    @property
    def p(self) -> float:
        """Protected fraction 1 - s - i."""
        return 1.0 - self.s - self.i


@dataclass(frozen=True)
class StepResponse:
    """All-or-nothing threshold response.

    Below the threshold nobody protects (p_SP = 0) and every protected agent
    returns to susceptible (p_PS = 1); above it the roles flip.  At
    i == i_star both probabilities are the whole interval [0, 1]: the
    response is a correspondence, not a function, and the induced field is
    set-valued there.
    """

    i_star: float

    def __post_init__(self):
        if not (0.0 < self.i_star <= 1.0):
            raise ValueError(f"i_star must lie in (0, 1], got {self.i_star}")


@dataclass(frozen=True)
class SigmoidResponse:
    """Piecewise-linear ramp of width epsilon centred on i_star.

    p_SP rises from 0 to 1 across [i_star - eps/2, i_star + eps/2] and
    p_PS = 1 - p_SP.  The eps -> 0 limit is `StepResponse`.
    """

    i_star: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.i_star <= 1.0):
            raise ValueError(f"i_star must lie in (0, 1], got {self.i_star}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass(frozen=True)
class TabulatedResponse:
    """Monotone response sampled at knots with linear interpolation.

    Evaluation clamps to the end values outside the knot range.  Slopes at a
    knot use the right-segment convention (and 0 in the clamped regions).
    """

    knots: tuple[float, ...]
    p_sp: tuple[float, ...]
    p_ps: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))
        object.__setattr__(self, "p_sp", tuple(float(v) for v in self.p_sp))
        object.__setattr__(self, "p_ps", tuple(float(v) for v in self.p_ps))
        n = len(self.knots)
        if n < 2:
            raise ValueError("tabulated response needs at least two knots")
        if len(self.p_sp) != n or len(self.p_ps) != n:
            raise ValueError("knots, p_sp and p_ps must have equal lengths")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must be strictly increasing")
        for name, vals in (("p_sp", self.p_sp), ("p_ps", self.p_ps)):
            if any(not (0.0 <= v <= 1.0) for v in vals):
                raise ValueError(f"{name} values must lie in [0, 1]")
        if any(b < a for a, b in zip(self.p_sp, self.p_sp[1:])):
            raise ValueError("p_sp values must be non-decreasing in i")
        if any(b > a for a, b in zip(self.p_ps, self.p_ps[1:])):
            raise ValueError("p_ps values must be non-increasing in i")


@dataclass(frozen=True)
class ConstantResponse:
    """State-independent switch probabilities (degenerate / testing variant)."""

    p_sp: float
    p_ps: float

    def __post_init__(self):
        for name in ("p_sp", "p_ps"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


ResponseSpec = Union[StepResponse, SigmoidResponse, TabulatedResponse, ConstantResponse]

# Variants whose response is a single-valued (continuous) function of i.
CONTINUOUS_RESPONSES = (SigmoidResponse, TabulatedResponse, ConstantResponse)


@dataclass(frozen=True)
class FieldPoint:
    """Single-valued field sample (ds/dt, di/dt)."""

    ds: float
    di: float

    def distance_to_zero(self) -> float:
        """Max-norm distance of the zero vector to this value."""
        return max(abs(self.ds), abs(self.di))


@dataclass(frozen=True)
class FieldSegment:
    """Set-valued field sample on the discontinuity line.

    The S-rate is the closed segment [ds_lo, ds_hi]; the I-rate is
    single-valued because the infection and disinfection terms do not
    depend on the protection decision.
    """

    ds_lo: float
    ds_hi: float
    di: float

    def __post_init__(self):
        if self.ds_lo > self.ds_hi:
            raise ValueError(f"segment endpoints out of order: {self.ds_lo} > {self.ds_hi}")

    def distance_to_zero(self) -> float:
        """Max-norm distance of the zero vector to the segment."""
        if self.ds_lo <= 0.0 <= self.ds_hi:
            ds_dist = 0.0
        else:
            ds_dist = min(abs(self.ds_lo), abs(self.ds_hi))
        return max(ds_dist, abs(self.di))


FieldValue = Union[FieldPoint, FieldSegment]


@dataclass(frozen=True)
class ClassSpec:
    """A population class: its fraction of the total and its response."""

    weight: float
    response: ResponseSpec

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"class weight must lie in (0, 1], got {self.weight}")


def compile_response(spec: ResponseSpec) -> Callable[[float], tuple[float, float]]:
    """Compile ``spec`` once into a scalar ``i -> (p_sp, p_ps)`` closure.

    This is the one implementation of the response: every engine evaluates
    it through this closure.  The closure makes no numpy calls, so it suits
    simulators that evaluate the response once per step or event.  At a
    step threshold it applies the canonical selection (p_sp, p_ps) = (0, 1),
    the limit from below, one fixed value out of the set [0, 1].  A sigmoid
    ramp is evaluated as ``(i - lo)/eps`` with ``lo = i_star - eps/2``
    precomputed.  Tabulated responses replicate ``numpy.interp`` bit for
    bit: clamp below the first knot and at or above the last, the knot
    value exactly on a knot, otherwise ``slope*(i - x[j]) + y[j]``.
    """
    if isinstance(spec, StepResponse):
        i_star = spec.i_star

        def resp(i):
            if i > i_star:
                return 1.0, 0.0
            return 0.0, 1.0

        return resp
    if isinstance(spec, SigmoidResponse):
        eps = spec.epsilon
        lo = spec.i_star - 0.5 * eps

        def resp(i):
            p = (i - lo) / eps
            if p < 0.0:
                p = 0.0
            elif p > 1.0:
                p = 1.0
            return p, 1.0 - p

        return resp
    if isinstance(spec, TabulatedResponse):
        xs, sp, ps = spec.knots, spec.p_sp, spec.p_ps
        x_first, x_last = xs[0], xs[-1]
        first, last = (sp[0], ps[0]), (sp[-1], ps[-1])
        widths = [b - a for a, b in zip(xs, xs[1:])]
        sp_slopes = [(b - a) / w for a, b, w in zip(sp, sp[1:], widths)]
        ps_slopes = [(b - a) / w for a, b, w in zip(ps, ps[1:], widths)]

        def resp(i):
            if i < x_first:
                return first
            if i < x_last:
                j = bisect_right(xs, i) - 1
                x = xs[j]
                if x == i:
                    return sp[j], ps[j]
                d = i - x
                return sp_slopes[j] * d + sp[j], ps_slopes[j] * d + ps[j]
            if i >= x_last:
                return last
            return i, i  # NaN propagates, as through numpy.interp

        return resp
    if isinstance(spec, ConstantResponse):
        pair = (spec.p_sp, spec.p_ps)
        return lambda i: pair
    raise TypeError(f"unknown response spec: {spec!r}")


def eval_response_selected(spec: ResponseSpec, i: float) -> tuple[float, float]:
    """One evaluation of `compile_response`; prefer the closure in loops."""
    return compile_response(spec)(i)


def compile_field(
    params: ModelParams, spec: ResponseSpec
) -> Callable[[float, float], tuple[float, float]]:
    """Compile the single-valued field into a scalar ``(s, i) -> (ds, di)`` closure.

    The response comes from `compile_response`, so a step threshold uses the
    canonical selection (0, 1); `field` gives the set-valued form there.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    resp = compile_response(spec)

    def rhs(s, i):
        p_sp, p_ps = resp(i)
        return (
            -beta * s * i - gamma * s * p_sp + gamma * (1.0 - s - i) * p_ps,
            (beta * s - delta) * i,
        )

    return rhs


def response_pieces(spec: ResponseSpec) -> list[tuple[float, float, float, float, float, float]]:
    """The linear pieces ``(x0, x1, sp0, b, ps0, d)`` of ``spec`` that cover
    [0, 1], in order: p_sp = sp0 + b*(i - x0), p_ps = ps0 + d*(i - x0) on
    [x0, x1].

    Adjacent pieces share a bound; zero-width ones may sit at 0 or 1.  A step
    is (0, 1) below i_star and (1, 0) above.  A sigmoid ramp starts at the
    ``lo`` of `compile_response`; a ramp or tabulated response holds its
    end values outside, clipped to [0, 1].  The first piece starts with
    the values `compile_response` gives at 0.
    """
    if isinstance(spec, StepResponse):
        return [(0.0, spec.i_star, 0.0, 0.0, 1.0, 0.0), (spec.i_star, 1.0, 1.0, 0.0, 0.0, 0.0)]
    if isinstance(spec, ConstantResponse):
        return [(0.0, 1.0, spec.p_sp, 0.0, spec.p_ps, 0.0)]
    # rows (x, sp, b, ps, d): the response from x up to the next row's x
    if isinstance(spec, SigmoidResponse):
        half = 0.5 * spec.epsilon
        rate = 1.0 / spec.epsilon
        rows = [
            (0.0, 0.0, 0.0, 1.0, 0.0),
            (spec.i_star - half, 0.0, rate, 1.0, -rate),
            (spec.i_star + half, 1.0, 0.0, 0.0, 0.0),
        ]
    elif isinstance(spec, TabulatedResponse):
        xs, sp, ps = spec.knots, spec.p_sp, spec.p_ps
        rows = [(0.0, sp[0], 0.0, ps[0], 0.0)]
        for j in range(len(xs) - 1):
            w = xs[j + 1] - xs[j]
            rows.append((xs[j], sp[j], (sp[j + 1] - sp[j]) / w, ps[j], (ps[j + 1] - ps[j]) / w))
        rows.append((xs[-1], sp[-1], 0.0, ps[-1], 0.0))
    else:
        raise TypeError(f"unknown response spec: {spec!r}")
    pieces = []
    for (x, sp0, b, ps0, d), (end, *_) in zip(rows, rows[1:] + [(1.0,)]):
        x0, x1 = max(x, 0.0), min(end, 1.0)
        if x1 < x0:
            continue
        if x0 != x:  # a piece that starts below 0 starts at the response at 0
            sp0, ps0 = compile_response(spec)(x0)
        pieces.append((x0, x1, sp0, b, ps0, d))
    return pieces


def _piece_fields(params: ModelParams, spec: ResponseSpec):
    """The field on each `response_pieces` piece, as ``(x0, x1, rhs)`` with
    ``rhs(s, i) -> (ds, di)`` a fixed polynomial that makes no response
    call: the hot path of integration.

    A constant piece is -beta*s*i - a*s + c*(1 - s - i) with a = gamma*sp0
    and c = gamma*ps0, so a step's two pieces are its one-sided fields
    below and above L.  A sloped piece takes p_sp = sp0 + b*u and
    p_ps = ps0 + d*u at u = i - x0, as `compile_response` evaluates a
    tabulated response.  The empty piece at 0 is left out: i = 0 is not a
    switching line.  One at 1 stays, for a step with i_star = 1 jumps
    there.  A piece too narrow for a finite slope keeps its values at x0.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    fields = []
    for x0, x1, sp0, b, ps0, d in response_pieces(spec):
        if x1 == 0.0:
            continue
        if b == d == 0.0 or not (math.isfinite(b) and math.isfinite(d)):
            rhs = _constant_piece(beta, delta, gamma * sp0, gamma * ps0)
        else:
            rhs = _sloped_piece(beta, gamma, delta, x0, sp0, b, ps0, d)
        fields.append((x0, x1, rhs))
    return fields


def _constant_piece(beta, delta, a, c):
    def rhs(s, i):
        return -beta * s * i - a * s + c * (1.0 - s - i), (beta * s - delta) * i

    return rhs


def _sloped_piece(beta, gamma, delta, x0, sp0, b, ps0, d):
    def rhs(s, i):
        u = i - x0
        return (
            -beta * s * i - gamma * s * (sp0 + b * u) + gamma * (1.0 - s - i) * (ps0 + d * u),
            (beta * s - delta) * i,
        )

    return rhs


def response_slopes(spec: ResponseSpec, i: float) -> tuple[float, float]:
    """Derivatives (dp_sp/di, dp_ps/di): the slopes b, d of the
    `response_pieces` piece that holds ``i``, the last one starting at or
    below it.

    That is the right-slope convention at kinks; a step response reports 0
    everywhere, its threshold included.
    """
    pieces = response_pieces(spec)
    _, _, _, b, _, d = pieces[max(bisect_right([p[0] for p in pieces], i) - 1, 0)]
    return b, d


def field(params: ModelParams, spec: ResponseSpec, x: State) -> FieldValue:
    """Right-hand side (dS/dt, dI/dt) at ``x``; set-valued on a step threshold.

    On L = {i == i_star} of a `StepResponse` the returned segment spans the
    two one-sided limits of the S-rate, ds_lo from above L (everyone
    protects) and ds_hi from below it (nobody does), the step's two
    `_piece_fields`, while di = (beta*s - delta)*i is continuous across L.
    Everywhere else the value is that of `compile_field`.
    """
    s, i = x.s, x.i
    if isinstance(spec, StepResponse) and i == spec.i_star:
        (_, _, below), (_, _, above) = _piece_fields(params, spec)
        ds_hi, di = below(s, i)
        return FieldSegment(ds_lo=above(s, i)[0], ds_hi=ds_hi, di=di)
    return FieldPoint(*compile_field(params, spec)(s, i))
