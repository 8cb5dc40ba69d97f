"""Stationary points of the protection-response dynamics and their stability.

Three kinds of equilibria occur:

* the disease-free point X0 (no infection; location set by the response
  at i = 0),
* the endemic point X1 = (delta/beta, I1) inside the region where the
  response is smooth, and
* for threshold (step) responses, the sliding point X2 = (delta/beta,
  i_star) on the discontinuity line, stationary in the set-valued sense
  (0 lies in the field segment).

Smooth equilibria are classified through the 2x2 Jacobian; the sliding
point through the one-sided quantities A+/A- of the locally transformed
system (x = delta/beta - s, y = i - i_star), whose sign combination
decides asymptotic stability of a point where trajectories cross the
discontinuity line with alternating orientation.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .model import (
    CONTINUOUS_RESPONSES,
    ModelParams,
    ResponseSpec,
    State,
    StepResponse,
    compile_field,
    eval_response_selected,
    response_slopes,
)

__all__ = [
    "EquilibriumKind",
    "Equilibrium",
    "Verdict",
    "StabilityReport",
    "NoRootError",
    "NoDecisionPressure",
    "HypothesisViolated",
    "SlidingNormalForm",
    "SweepRow",
    "find_equilibria",
    "find_equilibria_step",
    "find_equilibria_continuous",
    "endemic_root",
    "g_function",
    "jacobian",
    "stability_smooth",
    "stability_sliding",
    "sliding_normal_form",
    "equilibrium_infection_vs_gamma",
]

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200
BOUNDARY_EPS = 1e-10


class EquilibriumKind(Enum):
    DISEASE_FREE = "disease_free"
    ENDEMIC = "endemic"
    SLIDING = "sliding"


@dataclass(frozen=True)
class Equilibrium:
    """A stationary point, its kind and bookkeeping flags.

    ``aux`` is only set for sliding points: the protected->susceptible
    mixing probability delta*i_star / (gamma*(1 - delta/beta - i_star))
    that holds the state on the line (taking the susceptible->protected
    probability as 0).  ``degenerate`` marks coincidences (X1 collapsing
    onto X0 at delta/beta == s0 up to round-off, or at gamma == 0);
    ``boundary`` marks a sliding point whose admissibility condition holds
    with equality, where X1 and X2 coincide.
    """

    kind: EquilibriumKind
    point: State
    admissible: bool = True
    aux: float | None = None
    degenerate: bool = False
    boundary: bool = False


class Verdict(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    UNSTABLE = "unstable"
    SADDLE = "saddle"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class StabilityReport:
    """Classification plus the data behind it.

    Smooth equilibria carry the Jacobian eigenvalue pair; sliding points
    carry (a_plus, a_minus) instead.
    """

    verdict: Verdict
    eigenvalues: tuple[complex, complex] | None = None
    a_plus: float | None = None
    a_minus: float | None = None


class NoRootError(ValueError):
    """The endemic equation g(i) = 0 has no root: g(0) < 0."""


class NoDecisionPressure(ValueError):
    """p_sp(0) = p_ps(0) = 0: the disease-free state is not isolated."""


class HypothesisViolated(ValueError):
    """A hypothesis of the sliding-stability criterion fails (no admissible X2)."""


class SweepRow(NamedTuple):
    gamma: float
    i_eq: float
    kind: EquilibriumKind


def _endemic_i_step(beta: float, gamma: float, delta: float) -> float:
    """I-coordinate gamma*(1 - delta/beta)/(gamma + delta) of the step-response X1."""
    return gamma * (1.0 - delta / beta) / (gamma + delta)


def _folds_into_x0(s0: float, s_eq: float) -> bool:
    """delta/beta = s_eq within one rounding (2^-52) below X0's s0, or above:
    X1 would sit at i ~ 1e-16, on X0 up to round-off, and folds into it."""
    return s0 - s_eq <= 2.0**-52 * s0


def find_equilibria_step(params: ModelParams, i_star: float) -> list[Equilibrium]:
    """All admissible stationary points for a step response with threshold ``i_star``.

    X0 = (1, 0) always.  For delta < beta let I1 = gamma*(1 - delta/beta) /
    (gamma + delta): X1 = (delta/beta, I1) is admissible iff I1 < i_star
    (strictly), and X2 = (delta/beta, i_star) iff i_star <= I1.  The two
    conditions partition delta < beta; at equality only X2 is reported,
    flagged ``boundary`` (X1 and X2 coincide there).  At delta == beta (up
    to round-off) X1 collapses onto X0, and at gamma == 0 the whole line
    i = 0 is stationary; both leave X0 alone, flagged ``degenerate``.
    """
    if not (0.0 < i_star <= 1.0):
        raise ValueError(f"i_star must lie in (0, 1], got {i_star}")
    beta, gamma, delta = params.beta, params.gamma, params.delta
    s_eq = delta / beta
    degenerate = gamma == 0.0 or (delta <= beta and _folds_into_x0(1.0, s_eq))
    out = [Equilibrium(EquilibriumKind.DISEASE_FREE, State(1.0, 0.0), degenerate=degenerate)]
    if delta >= beta or degenerate:
        return out
    i1 = _endemic_i_step(beta, gamma, delta)
    if i1 < i_star:
        out.append(Equilibrium(EquilibriumKind.ENDEMIC, State(s_eq, i1)))
    else:
        # i_star <= i1 < 1 - delta/beta makes the denominator positive, but
        # i1 rounds to 1 - delta/beta when delta << gamma; there (and on
        # underflow) aux takes its value on the boundary i_star = i1, 1.
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


def g_function(params: ModelParams, spec: ResponseSpec, i: float) -> float:
    """Endemic balance g(i) whose root gives the X1 infection level: the
    S-rate of `compile_field` on the line s = delta/beta, where di/dt = 0,

        g(i) = -delta*i - (gamma*delta/beta)*p_sp(i)
               + gamma*(1 - delta/beta - i)*p_ps(i)

    g(1) < 0 for all positive rates; when g(0) >= 0 monotonicity yields a
    unique root in [0, 1 - delta/beta].
    """
    return compile_field(params, spec)(params.delta / params.beta, i)[0]


def endemic_root(params: ModelParams, spec: ResponseSpec) -> float:
    """Root of g on [0, 1] by bisection (absolute tolerance 1e-12).

    Raises `NoRootError` when g(0) < 0 (the endemic point does not exist).
    """
    rhs = compile_field(params, spec)
    s_eq = params.delta / params.beta
    g0 = rhs(s_eq, 0.0)[0]
    if g0 < 0.0:
        raise NoRootError(
            f"g(0) = {g0} < 0: no endemic equilibrium for these parameters"
        )
    return 0.0 if g0 == 0.0 else _bisect_g(rhs, s_eq)


def _bisect_g(rhs, s_eq: float) -> float:
    """Root of g(i) = rhs(s_eq, i)[0] on [0, 1], given g(0) > 0."""
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if rhs(s_eq, mid)[0] >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_equilibria_continuous(params: ModelParams, spec: ResponseSpec) -> list[Equilibrium]:
    """Stationary points for a single-valued (continuous) response.

    X0 = (p_ps(0)/(p_sp(0) + p_ps(0)), 0); the endemic point
    X1 = (delta/beta, I1) with g(I1) = 0 exists iff delta/beta <=
    p_ps(0)/(p_sp(0) + p_ps(0)) — equivalently g(0) >= 0 — and is located
    by bisection.  At equality (up to round-off) X1 coincides with X0
    (single equilibrium, flagged ``degenerate``).
    """
    if not isinstance(spec, CONTINUOUS_RESPONSES):
        raise TypeError(f"continuous response required, got {spec!r}")
    p_sp0, p_ps0 = eval_response_selected(spec, 0.0)
    denom = p_sp0 + p_ps0
    if denom == 0.0:
        raise NoDecisionPressure(
            f"response exerts no decision pressure at i=0 (p_sp = {p_sp0!r}, "
            f"p_ps = {p_ps0!r} at i = 0); the disease-free state is not isolated"
        )
    s0 = p_ps0 / denom
    rhs = compile_field(params, spec)
    s_eq = params.delta / params.beta
    g0 = rhs(s_eq, 0.0)[0]
    degenerate = g0 == 0.0 or (g0 > 0.0 and _folds_into_x0(s0, s_eq))
    x0 = Equilibrium(EquilibriumKind.DISEASE_FREE, State(s0, 0.0), degenerate=degenerate)
    if g0 < 0.0 or degenerate:
        return [x0]
    i1 = _bisect_g(rhs, s_eq)
    return [x0, Equilibrium(EquilibriumKind.ENDEMIC, State(s_eq, i1))]


def find_equilibria(params: ModelParams, spec: ResponseSpec) -> list[Equilibrium]:
    """Dispatch on the response variant."""
    if isinstance(spec, StepResponse):
        return find_equilibria_step(params, spec.i_star)
    return find_equilibria_continuous(params, spec)


def jacobian(params: ModelParams, spec: ResponseSpec, x: State) -> tuple[tuple[float, float], tuple[float, float]]:
    """Jacobian of the (smooth branch of the) field at ``x``.

        j11 = -beta*i - gamma*(p_sp + p_ps)
        j12 = -beta*s - gamma*s*p_sp' - gamma*p_ps + gamma*(1-s-i)*p_ps'
        j21 =  beta*i
        j22 =  beta*s - delta

    Response derivatives use the right-slope convention at kinks; step
    responses contribute zero slopes away from the threshold.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    s, i = x.s, x.i
    p_sp, p_ps = eval_response_selected(spec, i)
    d_sp, d_ps = response_slopes(spec, i)
    j11 = -beta * i - gamma * (p_sp + p_ps)
    j12 = -beta * s - gamma * s * d_sp - gamma * p_ps + gamma * (1.0 - s - i) * d_ps
    j21 = beta * i
    j22 = beta * s - delta
    return (j11, j12), (j21, j22)


def _eigenvalues_2x2(j11: float, j12: float, j21: float, j22: float) -> tuple[complex, complex]:
    if j21 == 0.0 or j12 == 0.0:
        # Triangular: the diagonal is exact; avoids cancellation in the
        # discriminant (relevant at the disease-free point where j21 = 0).
        pair = sorted((j11, j22))
        return complex(pair[0]), complex(pair[1])
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return complex(0.5 * (tr - root)), complex(0.5 * (tr + root))
    imag = 0.5 * math.sqrt(-disc)
    return complex(0.5 * tr, -imag), complex(0.5 * tr, imag)


def _classify(eigenvalues: tuple[complex, complex]) -> Verdict:
    re = [ev.real for ev in eigenvalues]
    re_max = max(re)
    if abs(re_max) <= BOUNDARY_EPS:
        return Verdict.BOUNDARY
    if re_max < 0.0:
        return Verdict.ASYMPTOTICALLY_STABLE
    if min(re) < 0.0 and all(ev.imag == 0.0 for ev in eigenvalues):
        return Verdict.SADDLE
    return Verdict.UNSTABLE


def stability_smooth(params: ModelParams, spec: ResponseSpec, eq: Equilibrium) -> StabilityReport:
    """Eigenvalue classification of a disease-free or endemic point."""
    if eq.kind is EquilibriumKind.SLIDING:
        raise ValueError("sliding points are classified by stability_sliding")
    (j11, j12), (j21, j22) = jacobian(params, spec, eq.point)
    eigenvalues = _eigenvalues_2x2(j11, j12, j21, j22)
    return StabilityReport(verdict=_classify(eigenvalues), eigenvalues=eigenvalues)


@dataclass(frozen=True)
class SlidingNormalForm:
    """One-sided fields around the sliding point, in coordinates
    x = delta/beta - s, y = i - i_star (discontinuity line = x-axis).

        x' = P+-(x, y),   y' = Q(x, y) = -beta*x*(y + i_star)

    The y-rate is continuous across the line; only the x-rate switches.
    Origin partials are exposed for finite-difference cross-checks.
    """

    beta: float
    gamma: float
    delta: float
    i_star: float

    def p_plus(self, x: float, y: float) -> float:
        b, g, d, ist = self.beta, self.gamma, self.delta, self.i_star
        return -b * x * y - (b * ist + g) * x + d * y + d * (ist + g / b)

    def p_minus(self, x: float, y: float) -> float:
        b, g, d, ist = self.beta, self.gamma, self.delta, self.i_star
        return (
            -b * x * y
            - (b * ist + g) * x
            + (g + d) * y
            + d * ist
            - g * (1.0 - d / b - ist)
        )

    def q(self, x: float, y: float) -> float:
        return -self.beta * x * (y + self.i_star)

    @property
    def p_plus_0(self) -> float:
        return self.delta * (self.i_star + self.gamma / self.beta)

    @property
    def p_minus_0(self) -> float:
        """delta*i_star - gamma*(1 - delta/beta - i_star) = (gamma + delta)*(i_star - I1),
        whose sign is exactly that of the test i_star <= I1 admitting X2."""
        i1 = _endemic_i_step(self.beta, self.gamma, self.delta)
        return (self.gamma + self.delta) * (self.i_star - i1)

    @property
    def p_x(self) -> float:
        """d(P+-)/dx at the origin (equal on both sides)."""
        return -(self.beta * self.i_star + self.gamma)

    @property
    def p_plus_y(self) -> float:
        return self.delta

    @property
    def p_minus_y(self) -> float:
        return self.gamma + self.delta

    @property
    def q_x(self) -> float:
        return -self.beta * self.i_star

    @property
    def q_y(self) -> float:
        return 0.0

    @property
    def q_xx(self) -> float:
        return 0.0


def sliding_normal_form(params: ModelParams, i_star: float) -> SlidingNormalForm:
    return SlidingNormalForm(params.beta, params.gamma, params.delta, i_star)


def stability_sliding(params: ModelParams, i_star: float) -> StabilityReport:
    """Stability of the sliding point via the one-sided quantities A+/A-.

        A+- = (2/3) * ((P_x + Q_y)/P - Q_xx/(2*Q_x))   at the origin,

    evaluated with the respective one-sided P; here Q_y = Q_xx = 0.  The
    point is asymptotically stable iff A+ - A- < 0, given P-(0,0) < 0 <
    P+(0,0); where either is 0 (X1 = X2, or underflow) the verdict is
    BOUNDARY, without A+-.  `HypothesisViolated` means that
    `find_equilibria_step` lists no X2 to classify.
    """
    last = find_equilibria_step(params, i_star)[-1]
    if last.kind is not EquilibriumKind.SLIDING:
        raise HypothesisViolated(
            f"no sliding point at i_star = {i_star}: {last.kind.value} is listed last"
        )
    nf = sliding_normal_form(params, i_star)
    if nf.p_minus_0 == 0.0 or nf.p_plus_0 == 0.0:
        return StabilityReport(verdict=Verdict.BOUNDARY)
    a_plus = (2.0 / 3.0) * (nf.p_x / nf.p_plus_0)
    a_minus = (2.0 / 3.0) * (nf.p_x / nf.p_minus_0)
    verdict = (
        Verdict.ASYMPTOTICALLY_STABLE if a_plus - a_minus < 0.0 else Verdict.UNSTABLE
    )
    return StabilityReport(verdict=verdict, a_plus=a_plus, a_minus=a_minus)


def equilibrium_infection_vs_gamma(
    beta: float,
    delta: float,
    i_star: float,
    gamma_grid: Sequence[float],
) -> list[SweepRow]:
    """Long-run infected fraction against the decision-update rate.

        I_eq(gamma) = min{ (1 - delta/beta)/(1 + delta/gamma), i_star }

    for delta < beta and gamma > 0 (zero otherwise): the endemic level
    rises with gamma until it saturates at the threshold, after which the
    sliding point pins the infection at i_star.  At gamma == 0 or delta ==
    beta up to round-off the row is disease-free, as `find_equilibria_step` has it.
    """
    if not (0.0 < i_star <= 1.0):
        raise ValueError(f"i_star must lie in (0, 1], got {i_star}")
    rows = []
    for gamma in gamma_grid:
        if gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        if delta >= beta or gamma == 0.0 or _folds_into_x0(1.0, delta / beta):
            rows.append(SweepRow(gamma, 0.0, EquilibriumKind.DISEASE_FREE))
            continue
        uncapped = _endemic_i_step(beta, gamma, delta)
        if i_star <= uncapped:
            rows.append(SweepRow(gamma, i_star, EquilibriumKind.SLIDING))
        else:
            rows.append(SweepRow(gamma, uncapped, EquilibriumKind.ENDEMIC))
    return rows
