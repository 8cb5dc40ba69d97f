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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
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
    p_PS = 1 - p_SP.  The eps -> 0 limit is `StepResponse`, and an eps so
    small that both ends round to i_star gives that step's rows: every
    engine then reads it as the step, bit for bit.
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


def _response_rows(spec: ResponseSpec) -> list[tuple[float, float, float, float, float]]:
    """The one definition of each response: rows ``(x, sp0, b, ps0, d)``
    over the whole real line, in order, the first from -inf.  Row j holds
    p_sp = sp0 + b*(i - x), p_ps = ps0 + d*(i - x) from its x up to the
    next row's.

    A step is two flat rows, (0, 1) and from i_star (1, 0); a constant one
    flat row.  A sigmoid is its two flat ends and the ramp from
    ``i_star - eps/2`` with slope 1/eps; a ramp whose ends both round to
    i_star is empty and left out, so that sigmoid has the step's rows.  A
    table is flat before its first knot and from its last, with one row per
    segment between, of slope ``(y1 - y0)/w``.
    """
    if isinstance(spec, StepResponse):
        return [(-math.inf, 0.0, 0.0, 1.0, 0.0), (spec.i_star, 1.0, 0.0, 0.0, 0.0)]
    if isinstance(spec, ConstantResponse):
        return [(-math.inf, spec.p_sp, 0.0, spec.p_ps, 0.0)]
    if isinstance(spec, SigmoidResponse):
        half, rate = 0.5 * spec.epsilon, 1.0 / spec.epsilon
        lo, hi = spec.i_star - half, spec.i_star + half
        ramp = [(lo, 0.0, rate, 1.0, -rate)] if lo < hi else []
        return [(-math.inf, 0.0, 0.0, 1.0, 0.0), *ramp, (hi, 1.0, 0.0, 0.0, 0.0)]
    if isinstance(spec, TabulatedResponse):
        xs, sp, ps = spec.knots, spec.p_sp, spec.p_ps
        rows = [(-math.inf, sp[0], 0.0, ps[0], 0.0)]
        for j in range(len(xs) - 1):
            w = xs[j + 1] - xs[j]
            rows.append((xs[j], sp[j], (sp[j + 1] - sp[j]) / w, ps[j], (ps[j + 1] - ps[j]) / w))
        rows.append((xs[-1], sp[-1], 0.0, ps[-1], 0.0))
        return rows
    raise TypeError(f"unknown response spec: {spec!r}")


def _jump(spec: ResponseSpec) -> float | None:
    """The i in (0, 1] where the response jumps, a step's i_star: the start
    of a flat row of `_response_rows` that follows a flat row with other
    values, else None.  Only there is it a switching line of the domain.
    Code outside `_response_rows` asks this, never the response's kind."""
    rows = _response_rows(spec)
    for (_, sp0, b0, ps0, d0), (x, sp1, b1, ps1, d1) in zip(rows, rows[1:]):
        if 0.0 < x <= 1.0 and b0 == d0 == b1 == d1 == 0.0 and (sp0, ps0) != (sp1, ps1):
            return x
    return None


def _find(spec: ResponseSpec):
    """The bisection that locates i among row or piece starts, the first of
    them -inf: ``find(starts, i) - 1`` is the last that starts at or below
    i (`bisect_right`), but where the table jumps (`_jump`) the one below
    (`bisect_left`), the canonical selection, the limit from below: for a
    step (p_sp, p_ps) = (0, 1) at i == i_star."""
    return bisect_right if _jump(spec) is None else bisect_left


def _row_value(row, i: float) -> tuple[float, float]:
    """``(p_sp, p_ps)`` of ``row`` at ``i``: its stored values where it is
    flat or ``u = i - x`` is 0 (knots too close for a finite slope), else
    ``sp0 + b*u, ps0 + d*u``."""
    x, sp0, b, ps0, d = row
    u = i - x
    if u == 0.0 or b == d == 0.0:
        return sp0, ps0
    return sp0 + b * u, ps0 + d * u


def _response_at(spec: ResponseSpec, i: float) -> tuple[float, float, float, float]:
    """``(p_sp, p_ps, dp_sp/di, dp_ps/di)`` at ``i`` from one lookup of the
    row that holds it: the value `compile_response` gives, and the row's
    slopes."""
    rows = _response_rows(spec)
    row = rows[_find(spec)(rows, i, key=itemgetter(0)) - 1]
    return (*_row_value(row, i), row[2], row[4])


def compile_response(spec: ResponseSpec) -> Callable[[float], tuple[float, float]]:
    """Compile ``spec`` once into a scalar ``i -> (p_sp, p_ps)`` closure: a
    lookup of the row that holds i (`_find`) in `_response_rows`.

    Every engine evaluates the response through this closure, which makes
    no numpy calls.  A flat row returns one prebuilt pair; a sloped row
    evaluates as `_row_value`.  Where the table jumps (`_jump`) this is the
    canonical selection, the limit from below: (0, 1) at a step threshold.
    Elsewhere a table matches ``numpy.interp`` bit for bit (it jumps only
    where a segment's slope underflows to 0): its end values outside the
    knots, the knot value exactly on a knot, otherwise
    ``slope*(i - x[j]) + y[j]``.
    """
    rows = _response_rows(spec)
    starts, flat = [], []
    for x, sp0, b, ps0, d in rows:
        starts.append(x)
        flat.append(None if b or d else (sp0, ps0))
    find = _find(spec)

    def resp(i):
        j = find(starts, i) - 1
        return flat[j] or _row_value(rows[j], i)

    return resp


def eval_response_selected(spec: ResponseSpec, i: float) -> tuple[float, float]:
    """The value `compile_response` gives at ``i``.  It stays only as the
    name the benchmark's tracer wraps for its response counts (ROADMAP
    item 4)."""
    return _response_at(spec, i)[:2]


def response_pieces(spec: ResponseSpec) -> list[tuple[float, float, float, float, float, float]]:
    """The rows of `_response_rows` clipped to [0, 1], in order, as pieces
    ``(x0, x1, sp0, b, ps0, d)``: p_sp = sp0 + b*(i - x0), p_ps = ps0 +
    d*(i - x0) on [x0, x1].

    The pieces start at 0, end at 1 and share their bounds.  A row that
    ends at or below 0 is left out, for i = 0 is no switching line; the
    last piece is empty where a step with i_star = 1 jumps at 1.  A piece
    that starts at 0 inside a sloped row takes the row's values there.
    """
    pieces, end = [], math.inf
    for row in reversed(_response_rows(spec)):  # each ends where the next starts
        x, sp0, b, ps0, d = row
        if end > 0.0 and x <= 1.0:
            if x < 0.0:
                x, (sp0, ps0) = 0.0, _row_value(row, 0.0)
            pieces.append((x, min(end, 1.0), sp0, b, ps0, d))
        end = row[0]
    pieces.reverse()
    return pieces


def _piece_fields(params: ModelParams, spec: ResponseSpec):
    """The field on each `response_pieces` piece, as ``(x0, x1, rhs)`` with
    ``rhs(s, i) -> (ds, di)`` a fixed polynomial that makes no response
    call: the one field formula, built once per run.

    A constant piece is -beta*s*i - a*s + c*(1 - s - i) with a = gamma*sp0
    and c = gamma*ps0, so a step's two pieces are its one-sided fields
    below and above L.  A sloped piece takes p_sp = sp0 + b*u and
    p_ps = ps0 + d*u at u = i - x0, as `compile_response` evaluates a
    row.  A piece too narrow for a finite slope keeps its values at x0.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    fields = []
    for x0, x1, sp0, b, ps0, d in response_pieces(spec):
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


def compile_field(
    params: ModelParams, spec: ResponseSpec
) -> Callable[[float, float], tuple[float, float]]:
    """Compile the single-valued field into a scalar ``(s, i) -> (ds, di)``
    closure: the field of the `_piece_fields` piece that holds i, located
    as `compile_response` locates its row (`_find`).  A step threshold
    takes the lower piece, the canonical selection (0, 1); `field` gives
    the set-valued form there.
    """
    pieces = _piece_fields(params, spec)
    starts = [-math.inf] + [x0 for x0, _, _ in pieces[1:]]
    fields = [rhs for _, _, rhs in pieces]
    find = _find(spec)

    def rhs(s, i):
        return fields[find(starts, i) - 1](s, i)

    return rhs


def response_slopes(spec: ResponseSpec, i: float) -> tuple[float, float]:
    """Derivatives (dp_sp/di, dp_ps/di): the slopes of the row that holds
    ``i`` (`_response_at`).

    That is the right-slope convention at kinks; a step response reports 0
    everywhere, its threshold included.
    """
    return _response_at(spec, i)[2:]


def field(params: ModelParams, spec: ResponseSpec, x: State) -> FieldValue:
    """Right-hand side (dS/dt, dI/dt) at ``x``; set-valued on a step threshold.

    On L = {i == `_jump`}, a step's i_star, the returned segment spans the
    two one-sided limits of the S-rate, ds_lo from above L (everyone
    protects) and ds_hi from below it (nobody does), the `_piece_fields`
    on either side, while di = (beta*s - delta)*i is continuous across L.
    Everywhere else the value is that of `compile_field`.
    """
    s, i = x.s, x.i
    if i == _jump(spec):
        pieces = _piece_fields(params, spec)
        k = [x0 for x0, _, _ in pieces].index(i)
        ds_hi, di = pieces[k - 1][2](s, i)
        return FieldSegment(ds_lo=pieces[k][2](s, i)[0], ds_hi=ds_hi, di=di)
    return FieldPoint(*compile_field(params, spec)(s, i))
