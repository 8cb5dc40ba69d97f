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
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "DOMAIN_SLACK",
    "ModelParams",
    "State",
    "Interval",
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
    "MultiClassState",
    "eval_response",
    "eval_response_selected",
    "compile_response",
    "eval_response_arrays",
    "response_slopes",
    "field",
    "field_multiclass",
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


class Interval(NamedTuple):
    """Closed interval [lo, hi]; the set-valued branch of a threshold response."""

    lo: float
    hi: float


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


@dataclass(frozen=True)
class MultiClassState:
    """Per-class (s_c, i_c) fractions of the *total* population."""

    fractions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        fracs = tuple((float(s), float(i)) for s, i in self.fractions)
        object.__setattr__(self, "fractions", fracs)
        if not fracs:
            raise ValueError("at least one class is required")
        for s, i in fracs:
            if s < -DOMAIN_SLACK or i < -DOMAIN_SLACK:
                raise ValueError(f"negative class fraction in ({s}, {i})")
        if self.total_s + self.total_i > 1.0 + DOMAIN_SLACK:
            raise ValueError("aggregate s + i exceeds 1")

    @property
    def total_s(self) -> float:
        return sum(s for s, _ in self.fractions)

    @property
    def total_i(self) -> float:
        return sum(i for _, i in self.fractions)


def eval_response(spec: ResponseSpec, i: float):
    """Switch probabilities (p_sp, p_ps) at infected fraction ``i``.

    For a `StepResponse` at exactly i == i_star the result is a pair of
    `Interval` objects (the correspondence is set-valued there); in every
    other case both entries are floats.
    """
    if isinstance(spec, StepResponse):
        if i < spec.i_star:
            return 0.0, 1.0
        if i > spec.i_star:
            return 1.0, 0.0
        return Interval(0.0, 1.0), Interval(0.0, 1.0)
    if isinstance(spec, SigmoidResponse):
        half = 0.5 * spec.epsilon
        if i <= spec.i_star - half:
            p_sp = 0.0
        elif i >= spec.i_star + half:
            p_sp = 1.0
        else:
            p_sp = (i - spec.i_star + half) / spec.epsilon
        return p_sp, 1.0 - p_sp
    if isinstance(spec, TabulatedResponse):
        p_sp = float(np.interp(i, spec.knots, spec.p_sp))
        p_ps = float(np.interp(i, spec.knots, spec.p_ps))
        return p_sp, p_ps
    if isinstance(spec, ConstantResponse):
        return spec.p_sp, spec.p_ps
    raise TypeError(f"unknown response spec: {spec!r}")


def eval_response_selected(spec: ResponseSpec, i: float) -> tuple[float, float]:
    """Single-valued response; on a step threshold applies the canonical selection.

    At exactly i == i_star the step correspondence admits any value in
    [0, 1]; the canonical selection (p_sp, p_ps) = (0, 1) — the limit from
    below — is used wherever a simulator needs one number.
    """
    p_sp, p_ps = eval_response(spec, i)
    if isinstance(p_sp, Interval):
        return 0.0, 1.0
    return p_sp, p_ps


def compile_response(spec: ResponseSpec) -> Callable[[float], tuple[float, float]]:
    """Compile ``spec`` once into a scalar ``i -> (p_sp, p_ps)`` closure.

    The closure makes no numpy calls, so it suits simulators that evaluate
    the response once per step or event.  It returns what
    `eval_response_selected` returns (the canonical selection (0, 1) at a
    step threshold) bit for bit, except that a sigmoid ramp is evaluated as
    ``(i - lo)/eps`` with ``lo = i_star - eps/2`` precomputed, which rounds
    differently from ``(i - i_star + eps/2)/eps`` by a few ulps of ``i``
    over ``eps``.  Tabulated responses replicate ``np.interp``: clamp below
    the first knot and at or above the last, the knot value exactly on a
    knot, otherwise ``slope*(i - x[j]) + y[j]``.
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
            return i, i  # NaN propagates, as through np.interp

        return resp
    if isinstance(spec, ConstantResponse):
        pair = (spec.p_sp, spec.p_ps)
        return lambda i: pair
    raise TypeError(f"unknown response spec: {spec!r}")


def eval_response_arrays(spec: ResponseSpec, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `eval_response` for single-valued (continuous) responses."""
    i = np.asarray(i, dtype=float)
    if isinstance(spec, SigmoidResponse):
        p_sp = np.clip((i - spec.i_star + 0.5 * spec.epsilon) / spec.epsilon, 0.0, 1.0)
        return p_sp, 1.0 - p_sp
    if isinstance(spec, TabulatedResponse):
        return np.interp(i, spec.knots, spec.p_sp), np.interp(i, spec.knots, spec.p_ps)
    if isinstance(spec, ConstantResponse):
        return np.full_like(i, spec.p_sp), np.full_like(i, spec.p_ps)
    raise TypeError(f"array evaluation requires a single-valued response, got {spec!r}")


def response_slopes(spec: ResponseSpec, i: float) -> tuple[float, float]:
    """Derivatives (dp_sp/di, dp_ps/di) with the right-slope convention at kinks.

    Step responses report slope 0 away from the threshold (the response is
    locally constant); the threshold itself has no meaningful slope and also
    reports 0.
    """
    if isinstance(spec, (StepResponse, ConstantResponse)):
        return 0.0, 0.0
    if isinstance(spec, SigmoidResponse):
        half = 0.5 * spec.epsilon
        if spec.i_star - half <= i < spec.i_star + half:
            rate = 1.0 / spec.epsilon
            return rate, -rate
        return 0.0, 0.0
    if isinstance(spec, TabulatedResponse):
        knots = spec.knots
        if i < knots[0] or i >= knots[-1]:
            return 0.0, 0.0
        k = int(np.searchsorted(knots, i, side="right")) - 1
        dk = knots[k + 1] - knots[k]
        return (
            (spec.p_sp[k + 1] - spec.p_sp[k]) / dk,
            (spec.p_ps[k + 1] - spec.p_ps[k]) / dk,
        )
    raise TypeError(f"unknown response spec: {spec!r}")


def field(params: ModelParams, spec: ResponseSpec, x: State) -> FieldValue:
    """Right-hand side (dS/dt, dI/dt) at ``x``; set-valued on a step threshold.

    On L = {i == i_star} of a `StepResponse` the returned segment spans the
    two one-sided limits of the S-rate,

        ds_lo = -beta*s*i - gamma*s              (limit from above)
        ds_hi = -beta*s*i + gamma*(1 - s - i)    (limit from below)

    while di = (beta*s - delta)*i is continuous across L.
    """
    s, i = x.s, x.i
    beta, gamma, delta = params.beta, params.gamma, params.delta
    di = beta * s * i - delta * i
    if isinstance(spec, StepResponse) and i == spec.i_star:
        return FieldSegment(
            ds_lo=-beta * s * i - gamma * s,
            ds_hi=-beta * s * i + gamma * (1.0 - s - i),
            di=di,
        )
    p_sp, p_ps = eval_response_selected(spec, i)
    ds = -beta * s * i - gamma * s * p_sp + gamma * (1.0 - s - i) * p_ps
    return FieldPoint(ds=ds, di=di)


def _check_weights(classes: Sequence[ClassSpec]) -> None:
    total = sum(c.weight for c in classes)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"class weights must sum to 1, got {total!r}")


def field_multiclass(
    params: ModelParams,
    classes: Sequence[ClassSpec],
    x: MultiClassState,
) -> list[FieldPoint]:
    """Per-class rates when classes share the epidemic but respond to total I.

    Every class sees the same infection pressure I_total = sum_c i_c; only
    its switch probabilities differ:

        dS_c/dt = -beta*s_c*I_total - gamma*s_c*p_SP^c(I_total)
                  + gamma*(a_c - s_c - i_c)*p_PS^c(I_total)
        dI_c/dt =  beta*s_c*I_total - delta*i_c

    Step thresholds hit exactly by I_total use the canonical selection
    (p_sp, p_ps) = (0, 1).
    """
    _check_weights(classes)
    if len(x.fractions) != len(classes):
        raise ValueError(
            f"state has {len(x.fractions)} classes, spec has {len(classes)}"
        )
    beta, gamma, delta = params.beta, params.gamma, params.delta
    i_total = x.total_i
    out = []
    for spec, (s_c, i_c) in zip(classes, x.fractions):
        if s_c + i_c > spec.weight + DOMAIN_SLACK:
            raise ValueError(
                f"class fractions ({s_c}, {i_c}) exceed class weight {spec.weight}"
            )
        p_sp, p_ps = eval_response_selected(spec.response, i_total)
        ds = (
            -beta * s_c * i_total
            - gamma * s_c * p_sp
            + gamma * (spec.weight - s_c - i_c) * p_ps
        )
        di = beta * s_c * i_total - delta * i_c
        out.append(FieldPoint(ds=ds, di=di))
    return out
