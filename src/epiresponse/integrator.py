"""Adaptive integration of the protection-response dynamics.

Every response is piecewise linear in i (`model.response_pieces`), so on
each piece the field is a fixed quadratic polynomial in (s, i), built once
(`model._piece_fields`), and the knots between pieces are switching lines
{i == knot}.  A step response has one knot, L = {i == i_star}, where the
field jumps; at the kinks of a ramp or a table it is continuous and only
its derivative jumps.  Inside a piece a Dormand-Prince 5(4) pair with a
quartic dense-output interpolant advances the state; a crossing of a knot
is located on the dense output by bisection, becomes an accepted point on
the knot, and the integration goes on with the next piece's field, so the
steps never straddle a knot (Hairer, Norsett & Wanner, *Solving ODEs I*,
section II.6).  Only crossings of a step's L are logged, as CrossUp /
CrossDown, and only they feed the spiral capture below.  The solution is a
scalar pair (s, i) on raw floats rather than arrays, which keeps the
per-step cost low enough to follow the slow spiral into a sliding point.

Every accepted point, a step's end or a crossing, takes one tail and then
`settle`, the one place a run ends before t_max: the spiral capture, then
the rest test.  Around an asymptotically stable sliding point the flow is
a fused focus: the crossings accumulate, and the crossing radius
r = |s - s_slide| obeys 1/r -> 1/r + |A+ - A-| per loop (Filippov 1988;
Kuznetsov, Rinaldi & Gragnani 2003), so no finite-step method reaches the
point in finite time.  When A+ and A- (`equilibria._sliding_report`, on
the X2 that `find_equilibria` listed) certify the point, capture takes
each crossing's per-loop gain 1/r - 1/r_prev against the last crossing
on the same side of L.  Once `LOOP_COUNT` consecutive
crossings each have a gain within relative `LOOP_TOL` of |A+ - A-| and a
radius below the crossing before, the spiral follows its normal form and
the run ends *at* the sliding point.  This truncation of the infinite
crossing sequence is the only deviation from plain numerical integration;
`IntegratorConfig.capture_spiral` disables it.
"""

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    Verdict,
    _endemic_i_step,
    _sliding_report,
    find_equilibria,
    stability_sliding,  # noqa: F401 -- bench/tracing.py wraps this name here
)
from .model import (
    DOMAIN_SLACK,
    ModelParams,
    ResponseSpec,
    State,
    StepResponse,
    _piece_fields,
    compile_response,
    eval_response_selected,  # noqa: F401 -- bench/tracing.py wraps this name here
    field,
)

__all__ = [
    "EventKind",
    "TerminationReason",
    "IntegratorConfig",
    "Trajectory",
    "StepUnderflowError",
    "StepBudgetError",
    "LeftDomainError",
    "DomainError",
    "integrate",
    "energy_E",
    "monotone_M",
    "dulac_scan",
    "classify_basin",
]


class EventKind(Enum):
    CROSS_UP = "CrossUp"
    CROSS_DOWN = "CrossDown"
    HIT_SLIDING = "HitSliding"
    REACHED_EQUILIBRIUM = "ReachedEquilibrium"


class TerminationReason(Enum):
    EQUILIBRIUM = "equilibrium"
    T_MAX = "t_max"


class StepUnderflowError(RuntimeError):
    """Step size collapsed below 1e-14 * t_max; carries the last state."""

    def __init__(self, t: float, state: State):
        super().__init__(f"step size underflow at t={t} near state {state}")
        self.t = t
        self.state = state


class StepBudgetError(RuntimeError):
    """`MAX_STEPS` DP5 attempts spent before t_max; carries the last state."""

    def __init__(self, t: float, state: State, crossings: int, capture: bool):
        advice = ("capture_spiral = true did not end this run: lower t_max" if capture
                  else "set capture_spiral = true or lower t_max")
        super().__init__(
            f"step budget of {MAX_STEPS} DP5 attempts spent at t={t} near state "
            f"{state}, after {crossings} crossings of the switching line: "
            "crossings that accumulate in finite time (a Zeno spiral into a "
            f"sliding point) never reach t_max; {advice}"
        )
        self.t = t
        self.state = state


class LeftDomainError(RuntimeError):
    """A sample left the unit simplex beyond slack (integrator defect)."""


class DomainError(ValueError):
    """Argument outside the domain of a diagnostic function."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    t_max: float = 1e4
    event_tol: float = 1e-10
    equilibrium_eps: float = 1e-7
    capture_spiral: bool = True
    store_dense: bool = True
    store_samples: bool = True

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "t_max",
            "event_tol",
            "equilibrium_eps",
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


# Sliding-point endgame (module docstring): the relative tolerance on the
# per-loop gain of 1/r, and the crossings in a row that must meet it.
LOOP_TOL = 1e-2
LOOP_COUNT = 3

# DP5 attempts, accepted and rejected, that one run may make: 27 s on a
# spiral that crosses L at nearly every step (Python 3.11, one x86 core).
# With capture off, the spiral into a sliding point crosses L without end.
MAX_STEPS = 10**6


# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600,
    71 / 16695,
    -71 / 1920,
    17253 / 339200,
    -22 / 525,
    1 / 40,
)
# Quartic dense output: y(t0 + u*h) = y0 + h*u*(q1 + u*(q2 + u*(q3 + u*q4)))
# with q1 = k1 and q2..q4 the stage combinations below (stage 2 unused).
_P1_2, _P1_3, _P1_4 = -2.8535800653862835, 3.0717434641059005, -1.1270175653862835
_P3_2, _P3_3, _P3_4 = 4.023133379230305, -6.249321565289, 2.675424484351598
_P4_2, _P4_3, _P4_4 = -3.7324019615885042, 10.068970589843675, -5.685526961588504
_P5_2, _P5_3, _P5_4 = 2.5548038301849423, -6.399112377351017, 3.5219323679207912
_P6_2, _P6_3, _P6_4 = -1.3744241142186024, 3.272657752246729, -1.7672812570757455
_P7_2, _P7_3, _P7_4 = 1.3824689317781436, -3.764937863556287, 2.382468931778144

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EVENT_PROBES = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


@dataclass
class Trajectory:
    """An integrated path: samples, regime-change events and dense segments.

    ``times``/``states`` hold the accepted step endpoints (plus crossing
    states); ``events`` the (t, kind) log.  `evaluate` interpolates on the
    stored dense segments.  ``equilibrium`` is the equilibrium the path came
    to rest at, ``None`` when it ran to t_max.  If the sliding-point capture
    fired, the final sample is the certified limit point itself rather than
    the last crossing state: `LOOP_COUNT` loops in a row had gained
    |A+ - A-| in 1/r, to within `LOOP_TOL`.
    """

    times: np.ndarray
    states: np.ndarray
    events: list[tuple[float, EventKind]]
    equilibrium: Equilibrium | None
    _segments: list | None = None
    _seg_starts: np.ndarray | None = None

    @property
    def reason(self) -> TerminationReason:
        if self.equilibrium is None:
            return TerminationReason.T_MAX
        return TerminationReason.EQUILIBRIUM

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> State:
        s, i = self.states[-1]
        return State(float(s), float(i))

    @property
    def samples(self) -> list[tuple[float, State]]:
        return [
            (float(t), State(float(s), float(i)))
            for t, (s, i) in zip(self.times, self.states)
        ]

    def evaluate(self, times) -> np.ndarray:
        """Dense solution values at the requested times, shape (n, 2)."""
        if self._segments is None:
            raise ValueError("trajectory was integrated without dense storage")
        queries = np.atleast_1d(np.asarray(times, dtype=float))
        t0 = float(self.times[0])
        t1 = self.final_time
        out = np.empty((queries.size, 2))
        if np.any(queries < t0 - 1e-12) or np.any(queries > t1 + 1e-12):
            raise ValueError(f"query times outside [{t0}, {t1}]")
        if not self._segments:
            out[:, 0], out[:, 1] = self.states[-1]
            return out
        for idx, tq in enumerate(queries):
            k = int(np.searchsorted(self._seg_starts, tq, side="right")) - 1
            k = min(max(k, 0), len(self._segments) - 1)
            seg_t0, seg_t1, h, s0, i0, qs, qi = self._segments[k]
            u = (tq - seg_t0) / h
            u = min(max(u, 0.0), (seg_t1 - seg_t0) / h)
            out[idx, 0] = s0 + h * u * (qs[0] + u * (qs[1] + u * (qs[2] + u * qs[3])))
            out[idx, 1] = i0 + h * u * (qi[0] + u * (qi[1] + u * (qi[2] + u * qi[3])))
        return out


def _quartic(f1, k3, k4, k5, k6, k7):
    """Dense-output coefficients (q1, q2, q3, q4) of one component."""
    return (
        f1,
        _P1_2 * f1 + _P3_2 * k3 + _P4_2 * k4 + _P5_2 * k5 + _P6_2 * k6 + _P7_2 * k7,
        _P1_3 * f1 + _P3_3 * k3 + _P4_3 * k4 + _P5_3 * k5 + _P6_3 * k6 + _P7_3 * k7,
        _P1_4 * f1 + _P3_4 * k3 + _P4_4 * k4 + _P5_4 * k5 + _P6_4 * k6 + _P7_4 * k7,
    )


def _rms(a: float, b: float) -> float:
    """sqrt((a^2 + b^2) / 2); inf where a square overflows."""
    try:
        return math.sqrt(0.5 * (a**2 + b**2))
    except OverflowError:
        return math.inf


def _initial_step(rhs, s, i, fs, fi, rel_tol, abs_tol, t_left):
    """First step size; 0.0 when none is representable, which the caller
    reports as a step underflow."""
    scale_s = abs_tol + rel_tol * abs(s)
    scale_i = abs_tol + rel_tol * abs(i)
    d0 = _rms(s / scale_s, i / scale_i)
    d1 = _rms(fs / scale_s, fi / scale_i)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_left)
    if not h0 > 0.0:  # d0 / d1 underflowed, or was inf / inf
        return 0.0
    gs, gi = rhs(s + h0 * fs, i + h0 * fi)
    d2 = _rms((gs - fs) / scale_s, (gi - fi) / scale_i) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        # the 1e-15 floor only acts when d2 is nan
        h1 = (0.01 / max(d1, d2, 1e-15)) ** 0.2
    return min(100 * h0, h1, t_left)


def _no_crossing(i, h, q, lo, hi):
    """True when no probe of a step's dense output of i can leave (lo, hi).

    A probe is ``i + h*u*(q1 + u*(q2 + u*(q3 + u*q4)))`` with ``q = (q1, q2,
    q3, q4)`` and u in (0, 1].  Rounding is monotone and |fl(u*x)| <= |x|
    for such u, so every computed probe lies between i - reach and
    i + reach, with reach = h*(|q1| + (|q2| + (|q3| + |q4|))) summed in
    Horner's order and the sums with i rounded like the probe's: the bound
    holds as computed, with no further slack.
    """
    q1, q2, q3, q4 = q
    reach = h * (abs(q1) + (abs(q2) + (abs(q3) + abs(q4))))
    return lo < i - reach and i + reach < hi


def _clip_to_domain(t, s, i):
    if s < 0.0:
        if s < -DOMAIN_SLACK:
            raise LeftDomainError(f"s = {s} at t = {t}")
        s = 0.0
    if i < 0.0:
        if i < -DOMAIN_SLACK:
            raise LeftDomainError(f"i = {i} at t = {t}")
        i = 0.0
    excess = s + i - 1.0
    if excess > 0.0:
        if excess > DOMAIN_SLACK:
            raise LeftDomainError(f"s + i = {s + i} at t = {t}")
        s -= excess
    return s, i


def integrate(
    params: ModelParams,
    spec: ResponseSpec,
    x0: State,
    cfg: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate from ``x0`` until equilibrium or ``cfg.t_max``.

    The field is the polynomial of the response piece that holds i.  A
    step whose dense output of i leaves the piece is cut at the knot it
    crosses, bisected to ``event_tol``; the knot becomes an accepted point
    and the next piece's field takes over.  A step whose dense output
    provably stays inside the piece (`_no_crossing`) skips the probes.  On
    a step response the knot is L = {i == i_star} and its crossings are
    logged as CrossUp / CrossDown events.  A start exactly on a knot takes
    the piece the flow leaves to, by the sign of di/dt = (beta*s - delta)*i.
    On L, off the tangency point the trajectory immediately crosses; at
    s == delta/beta it either *is* the sliding equilibrium (when
    admissible) or continues with the below-threshold branch — the
    canonical selection (p_sp, p_ps) = (0, 1), one fixed choice among the
    admissible continuations, kept for reproducibility.

    `settle` ends the run (see the module docstring).  Its rest test, with a
    ReachedEquilibrium event, requires both proximity (within
    ``equilibrium_eps``) to an admissible equilibrium and a field norm below
    ``equilibrium_eps`` (segment distance on L); the trajectory then carries
    the nearest such equilibrium (the first listed on a tie).  A state with
    i > 0 rests at a disease-free point only where the line i = 0 attracts
    (beta*s <= delta).  At gamma == 0 every point of that line is
    stationary, so a state on it, or near it where it attracts, rests at a
    degenerate disease-free point.  A run still short of t_max after
    `MAX_STEPS` DP5 attempts raises `StepBudgetError`.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    beta, delta = params.beta, params.delta
    equilibria = find_equilibria(params, spec)
    eq_points = [(eq.point.s, eq.point.i, eq) for eq in equilibria]
    eps = cfg.equilibrium_eps
    line_rest = params.gamma == 0.0

    sliding_eq = next(
        (eq for eq in equilibria if eq.kind is EquilibriumKind.SLIDING), None
    )
    capture_armed = False
    if cfg.capture_spiral and sliding_eq is not None:
        report = _sliding_report(params, spec.i_star)
        capture_armed = report.verdict is Verdict.ASYMPTOTICALLY_STABLE
        if capture_armed:
            loop_gain = report.a_minus - report.a_plus  # = |A+ - A-|
    # consecutive crossings that met the certificate, the last crossing
    # radius, and the last one on each side of L (indexed by the piece)
    matched, last_r, side_r = 0, math.inf, [math.inf, math.inf]

    t = 0.0
    s, i = x0.s, x0.i
    events: list[tuple[float, EventKind]] = []
    sample_t, sample_s, sample_i = [0.0], [s], [i]
    store_samples = cfg.store_samples
    segments = [] if cfg.store_dense else None

    def build(eq=None):
        if eq is not None:
            events.append((t, EventKind.REACHED_EQUILIBRIUM))
        if not store_samples and t > 0.0:
            sample_t.append(t)
            sample_s.append(s)
            sample_i.append(i)
        states = np.column_stack([sample_s, sample_i])
        traj = Trajectory(np.array(sample_t), states, events, eq)
        if segments is not None:
            traj._segments = segments
            traj._seg_starts = np.array([seg[0] for seg in segments])
        return traj

    def settle(crossed, inside):
        """The equilibrium the run ends at here, or None to go on.  With
        ``inside`` the caller has found the field within eps, strictly
        inside the piece where it is the loop's own (fs, fi)."""
        nonlocal s, i, matched, last_r
        if crossed and capture_armed:
            r = abs(s - sliding_eq.point.s)
            r_prev, side_r[k] = side_r[k], r
            # |1/r - 1/r_prev - gain| <= LOOP_TOL*gain, times r*r_prev: no
            # division by r = 0, and false (nan) while r_prev is inf
            gain_ok = abs(r_prev - r - loop_gain * r * r_prev) <= (
                LOOP_TOL * loop_gain * r * r_prev
            )
            matched = matched + 1 if gain_ok and r < last_r else 0
            last_r = r
            if matched >= LOOP_COUNT:
                s, i = sliding_eq.point.s, sliding_eq.point.i
                if store_samples:
                    sample_s[-1] = s
                    sample_i[-1] = i
                events.append((t, EventKind.HIT_SLIDING))
                return sliding_eq
        # the line i = 0 holds a run only where it attracts (beta*s <= delta,
        # since di/dt = (beta*s - delta)*i there) or exactly on it
        line_holds = i == 0.0 or beta * s <= delta
        near = None
        for es, ei, eq in eq_points:
            if abs(s - es) <= eps and abs(i - ei) <= eps and (ei > 0.0 or line_holds):
                dist = max(abs(s - es), abs(i - ei))
                if near is None or dist < near_dist:
                    near, near_dist = eq, dist
        if near is None and line_rest and i <= eps and line_holds:
            near = Equilibrium(
                EquilibriumKind.DISEASE_FREE, State(s, 0.0), degenerate=True
            )
        if near is None or not inside and (
            field(params, spec, State(s, i)).distance_to_zero() > eps
        ):
            return None
        return near

    # The pieces' fields and bounds: piece k holds knots[k - 1] <= i <=
    # knots[k], with no bound below the first or above the last.  Only a
    # step's knot is a jump of the field, L.
    pieces = _piece_fields(params, spec)
    knots = [x0 for x0, _, _ in pieces[1:]]
    fields = [rhs for _, _, rhs in pieces]
    bounds = list(zip([-math.inf] + knots, knots + [math.inf]))
    jump = isinstance(spec, StepResponse)
    k = sum(x <= i for x in knots)  # the last piece that starts at or below i
    if k and i == knots[k - 1]:
        s_line = delta / beta
        if not s > s_line:
            k -= 1
        if jump:
            if s > s_line:
                events.append((t, EventKind.CROSS_UP))
            elif s < s_line:
                events.append((t, EventKind.CROSS_DOWN))
            elif sliding_eq is not None:
                events.append((t, EventKind.HIT_SLIDING))
                return build(sliding_eq)
            # else: the tangency, canonical selection below
    rhs, (lo, hi) = fields[k], bounds[k]
    probe = len(fields) > 1
    fs, fi = rhs(s, i)

    if (eq := settle(False, False)) is not None:
        return build(eq)

    # At least the smallest double: a step of 0 never advances t.
    min_step = max(1e-14 * cfg.t_max, math.ulp(0.0))
    h = _initial_step(rhs, s, i, fs, fi, cfg.rel_tol, cfg.abs_tol, cfg.t_max)
    if h > 0.0:  # a first guess below min_step is tried at min_step
        h = max(h, min_step)
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    t_max = cfg.t_max
    event_tol = cfg.event_tol
    store_dense = cfg.store_dense
    attempts = 0

    while t < t_max:
        remaining = t_max - t
        if remaining < min_step:
            break  # within round-off of the horizon
        if attempts == MAX_STEPS:
            # only crossings are logged before the run ends
            raise StepBudgetError(t, State(s, i), len(events), cfg.capture_spiral)
        attempts += 1
        h = min(h, remaining)
        if h < min_step:
            raise StepUnderflowError(t, State(s, i))

        # One Dormand-Prince attempt (first-same-as-last: fs, fi is stage 1).
        k2s, k2i = rhs(s + h * (_A21 * fs), i + h * (_A21 * fi))
        k3s, k3i = rhs(
            s + h * (_A31 * fs + _A32 * k2s), i + h * (_A31 * fi + _A32 * k2i)
        )
        k4s, k4i = rhs(
            s + h * (_A41 * fs + _A42 * k2s + _A43 * k3s),
            i + h * (_A41 * fi + _A42 * k2i + _A43 * k3i),
        )
        k5s, k5i = rhs(
            s + h * (_A51 * fs + _A52 * k2s + _A53 * k3s + _A54 * k4s),
            i + h * (_A51 * fi + _A52 * k2i + _A53 * k3i + _A54 * k4i),
        )
        k6s, k6i = rhs(
            s + h * (_A61 * fs + _A62 * k2s + _A63 * k3s + _A64 * k4s + _A65 * k5s),
            i + h * (_A61 * fi + _A62 * k2i + _A63 * k3i + _A64 * k4i + _A65 * k5i),
        )
        s1 = s + h * (_B1 * fs + _B3 * k3s + _B4 * k4s + _B5 * k5s + _B6 * k6s)
        i1 = i + h * (_B1 * fi + _B3 * k3i + _B4 * k4i + _B5 * k5i + _B6 * k6i)
        k7s, k7i = rhs(s1, i1)
        err_s = h * (
            _E1 * fs + _E3 * k3s + _E4 * k4s + _E5 * k5s + _E6 * k6s + _E7 * k7s
        )
        err_i = h * (
            _E1 * fi + _E3 * k3i + _E4 * k4i + _E5 * k5i + _E6 * k6i + _E7 * k7i
        )
        scale_s = abs_tol + rel_tol * max(abs(s), abs(s1))
        scale_i = abs_tol + rel_tol * max(abs(i), abs(i1))
        try:  # _rms, inlined: this is the hot loop
            err = math.sqrt(0.5 * ((err_s / scale_s) ** 2 + (err_i / scale_i) ** 2))
        except OverflowError:
            err = math.inf
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            continue

        # Probe the dense output of i for a crossing of the piece's bounds.
        qi = _quartic(fi, k3i, k4i, k5i, k6i, k7i) if probe or store_dense else None
        crossed = False
        if probe and not _no_crossing(i, h, qi, lo, hi):
            qi1, qi2, qi3, qi4 = qi
            ua = 0.0
            for ub in _EVENT_PROBES:
                g = i + h * ub * (qi1 + ub * (qi2 + ub * (qi3 + ub * qi4)))
                if g < lo or g > hi:
                    crossed = True
                    break
                ua = ub
        qs = _quartic(fs, k3s, k4s, k5s, k6s, k7s) if store_dense or crossed else None

        if crossed:
            # Bisect (ua, ub] on the dense output: the accepted point is the
            # crossing, on the knot exactly, and the next piece's field
            # takes over there.
            while (ub - ua) * h > event_tol:
                um = 0.5 * (ua + ub)
                if not ua < um < ub:
                    break  # adjacent doubles: event_tol is below round-off
                gm = i + h * um * (qi1 + um * (qi2 + um * (qi3 + um * qi4)))
                if gm < lo or gm > hi:
                    ub, g = um, gm
                else:
                    ua = um
            te = t + ub * h
            s1 = s + h * ub * (qs[0] + ub * (qs[1] + ub * (qs[2] + ub * qs[3])))
            down = g < lo
            if jump:
                events.append((te, EventKind.CROSS_DOWN if down else EventKind.CROSS_UP))
            i1 = lo if down else hi
            k += -1 if down else 1
            rhs, (lo, hi) = fields[k], bounds[k]
        else:
            te = t + h

        # The one tail of every accepted point.
        s1c, i1c = _clip_to_domain(te, s1, i1)
        if segments is not None:
            segments.append((t, te, h, s, i, qs, qi))
        t, s, i = te, s1c, i1c
        if store_samples:
            sample_t.append(t)
            sample_s.append(s)
            sample_i.append(i)
        if crossed or s1c != s1 or i1c != i1:
            fs, fi = rhs(s, i)
        else:
            fs, fi = k7s, k7i
        # strictly inside its piece `field` is the loop's own (fs, fi), bit
        # for bit: no rest where that exceeds eps
        inside = lo < i < hi
        if not (inside and (abs(fs) > eps or abs(fi) > eps)) and (
            eq := settle(crossed and jump, inside)
        ) is not None:
            return build(eq)
        if crossed:
            continue  # reuse the current h; the controller re-adapts
        if err == 0.0:
            h *= _MAX_FACTOR
        else:
            h *= min(_MAX_FACTOR, _SAFETY * err**-0.2)

    return build()


def energy_E(params: ModelParams, x: State) -> float:
    """First-integral diagnostic of the above-threshold branch.

        E(s, i) = s - (delta/beta)*ln(s) + i + (gamma/beta)*ln(i)

    Constant along trajectories while they remain strictly above the
    threshold (everyone protecting); only defined for s, i > 0.
    """
    if x.s <= 0.0 or x.i <= 0.0:
        raise DomainError(f"energy_E needs s, i > 0, got ({x.s}, {x.i})")
    beta, gamma, delta = params.beta, params.gamma, params.delta
    return x.s - (delta / beta) * math.log(x.s) + x.i + (gamma / beta) * math.log(x.i)


def monotone_M(params: ModelParams, x: State) -> float:
    """Lyapunov-like diagnostic of the below-threshold branch.

        M(s, i) = s - (delta/beta + gamma/beta)*ln(s + gamma/beta)
                  + i - I1*ln(i),

    with I1 = gamma*(1 - delta/beta)/(gamma + delta) the step response's
    endemic level, is non-increasing along below-threshold trajectories:

        dM/dt = -(beta*s - delta)^2/(beta*s + gamma)
                * (1 + gamma/beta)/(1 + delta/gamma) <= 0,

    vanishing only at s = delta/beta.
    """
    if x.s <= 0.0 or x.i <= 0.0:
        raise DomainError(f"monotone_M needs s, i > 0, got ({x.s}, {x.i})")
    beta, gamma, delta = params.beta, params.gamma, params.delta
    i1 = _endemic_i_step(beta, gamma, delta)
    return (
        x.s
        - (delta / beta + gamma / beta) * math.log(x.s + gamma / beta)
        + x.i
        - i1 * math.log(x.i)
    )


def dulac_scan(params: ModelParams, spec: ResponseSpec, grid_n: int) -> float:
    """Worst (largest) value of div(F/i) over a grid of D with i >= 1/grid_n.

        div(F/i) = -beta - gamma*(p_sp(i) + p_ps(i))/i

    A strictly negative maximum rules out periodic orbits in the scanned
    region (divergence test with multiplier 1/i).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if isinstance(spec, StepResponse):
        raise TypeError("the divergence scan requires a single-valued response")
    beta, gamma = params.beta, params.gamma
    resp = compile_response(spec)
    # div(F/i) does not depend on s, and s = 0 keeps every grid level of i
    # inside D, so the scan runs over the i levels alone.
    return max(
        -beta - gamma * sum(resp(i)) / i
        for i in np.linspace(1.0 / grid_n, 1.0, grid_n).tolist()
    )


def classify_basin(
    params: ModelParams,
    spec: ResponseSpec,
    x0_grid: list[State],
    cfg: IntegratorConfig | None = None,
) -> dict[State, EquilibriumKind | None]:
    """Label every start by the equilibrium its trajectory reaches.

    ``None`` marks starts still unresolved at t_max.  Dense/sample storage
    is disabled for the sweep; only the labels survive.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    run_cfg = dataclasses.replace(cfg, store_dense=False, store_samples=False)
    labels: dict[State, EquilibriumKind | None] = {}
    for x0 in x0_grid:
        eq = integrate(params, spec, x0, run_cfg).equilibrium
        labels[x0] = None if eq is None else eq.kind
    return labels
