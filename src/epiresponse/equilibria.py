"""Stationary points of the protection-response dynamics and their stability.

Three kinds of equilibria occur:

* the disease-free point X0 (no infection; location set by the response
  at i = 0),
* the endemic point X1 = (delta/beta, I1) inside the region where the
  response is smooth, and
* for threshold (step) responses, the sliding point X2 = (delta/beta,
  i_star) on the discontinuity line, stationary in the set-valued sense
  (0 lies in the field segment).

All three come from one exact solve on the response's linear pieces
(`find_equilibria`): on the piece that holds it, the endemic balance g
is a quadratic in i, and X2 is g's sign change across a step's jump.

Smooth equilibria are classified through the 2x2 Jacobian; the sliding
point through the one-sided quantities A+/A- of the locally transformed
system (x = delta/beta - s, y = i - i_star), whose sign combination
decides asymptotic stability of a point where trajectories cross the
discontinuity line with alternating orientation.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .model import (
    ModelParams,
    ResponseSpec,
    State,
    StepResponse,
    _jump,
    _piece_fields,
    _response_at,
    compile_response,
    eval_response_selected,
    response_pieces,
)

__all__ = [
    "EquilibriumKind",
    "Equilibrium",
    "Verdict",
    "StabilityReport",
    "NoDecisionPressure",
    "HypothesisViolated",
    "SlidingNormalForm",
    "SweepRow",
    "find_equilibria",
    "find_equilibria_step",
    "find_equilibria_continuous",
    "g_function",
    "jacobian",
    "stability_smooth",
    "stability_sliding",
    "sliding_normal_form",
    "equilibrium_infection_vs_gamma",
]

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


def find_equilibria(params: ModelParams, spec: ResponseSpec) -> list[Equilibrium]:
    """All admissible stationary points, solved exactly on `response_pieces`.

    X0 = (s0, 0), s0 = p_ps(0)/(p_sp(0) + p_ps(0)).  A second point exists
    iff delta <= beta*s0; within one rounding of equality, or at gamma == 0
    (the line i = 0 is then stationary), it folds into X0, flagged
    ``degenerate``.  Otherwise g (`g_function`) falls from g(0) > 0 with one
    sign change.  On the piece whose knot values hold it, with q = delta/beta
    and m = 1 - q, g(x0 + u) = A*u^2 + B*u + g(x0) with A = -gamma*d and
    B = gamma*((m - x0)*d - ps0) - delta - gamma*q*b, whose root
    u = 2*g(x0)/(-B + sqrt(B^2 - 4*A*g(x0))), kept on the piece, gives the
    endemic X1 = (q, I1); on a sloped piece all three are divided by gamma.
    For a step, I1 = gamma*m/(gamma + delta) on the lower piece: X1 is
    admissible iff I1 < i_star, else g changes sign across the jump and
    X2 = (q, i_star) is listed, flagged ``boundary`` when I1 == i_star.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    p_sp0, p_ps0 = eval_response_selected(spec, 0.0)
    if p_sp0 + p_ps0 == 0.0:
        raise NoDecisionPressure(
            f"response exerts no decision pressure at i=0 (p_sp = {p_sp0!r}, "
            f"p_ps = {p_ps0!r} at i = 0); the disease-free state is not isolated"
        )
    s0 = p_ps0 / (p_sp0 + p_ps0)
    q = delta / beta
    m = 1.0 - q
    exists = delta <= beta * s0
    degenerate = gamma == 0.0 or (exists and _folds_into_x0(s0, q))
    out = [Equilibrium(EquilibriumKind.DISEASE_FREE, State(s0, 0.0), degenerate=degenerate)]
    if degenerate or not exists:
        return out

    # g falls from g(0) > 0: its root lies on the last piece that starts with
    # g > 0.  The test reads g/gamma, in which only delta/gamma moves with
    # gamma, so the piece never moves left as gamma grows.
    pieces = response_pieces(spec)
    k = 0
    for x, _, sp, _, ps, _ in pieces[1:]:
        if not (m - x) * ps - q * sp - delta * x / gamma > 0.0:
            break
        k += 1
    x0, x1, sp0, b, ps0, d = pieces[k]
    if b == 0.0 and d == 0.0:
        # g is linear, and its root -g(x0)/B is for a step exactly the
        # closed form gamma*m/(gamma + delta); where that sum overflows,
        # halving both terms is exact and keeps the quotient
        c0 = gamma * (m - x0) * ps0 - gamma * q * sp0 - delta * x0
        den = delta + gamma * ps0
        if den == math.inf:
            u = (0.5 * c0) / (0.5 * delta + 0.5 * gamma * ps0)
        else:
            u = c0 / den
    else:
        # -B/gamma; each operation is monotone in delta/gamma, so the root
        # never falls as gamma grows, and no slope is multiplied by gamma
        neg_b = delta / gamma + ps0 + q * b - (m - x0) * d
        u = ((m - x0) * ps0 - q * sp0 - delta * x0 / gamma) / neg_b
        # max(0.0, NaN) is 0.0, where an infinite slope meets u = 0
        u = 2.0 * u / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * (-d * u / neg_b))))
    root = x0 + u
    if root < x1 or x1 != _jump(spec):
        return out + [Equilibrium(EquilibriumKind.ENDEMIC, State(q, min(max(root, x0), x1)))]
    # i_star <= root < 1 - q makes the denominator positive, but the root
    # rounds to 1 - q when delta << gamma; there (and on underflow) aux
    # takes its value on the boundary i_star = root, 1.
    den = gamma * (1.0 - q - x1)
    aux = delta * x1 / den if den > 0.0 else 1.0
    return out + [
        Equilibrium(EquilibriumKind.SLIDING, State(q, x1), aux=aux, boundary=(root == x1))
    ]


def find_equilibria_step(params: ModelParams, i_star: float) -> list[Equilibrium]:
    """`find_equilibria` for ``StepResponse(i_star)``."""
    return find_equilibria(params, StepResponse(i_star))


def find_equilibria_continuous(params: ModelParams, spec: ResponseSpec) -> list[Equilibrium]:
    """`find_equilibria` for a response whose rows do not jump (`model._jump`)."""
    if _jump(spec) is not None:
        raise TypeError(f"continuous response required, got {spec!r}")
    return find_equilibria(params, spec)


def g_function(params: ModelParams, spec: ResponseSpec, i: float) -> float:
    """Endemic balance g(i) whose root gives the X1 infection level: the
    S-rate on the line s = delta/beta, where di/dt = 0,

        g(i) = -delta*i - (gamma*delta/beta)*p_sp(i)
               + gamma*(1 - delta/beta - i)*p_ps(i),

    evaluated as these three terms, so -delta*i survives where delta/beta
    underflows.  g(1) < 0 for all positive rates; g is strictly decreasing
    on [0, 1 - delta/beta] and negative beyond, so when g(0) >= 0 it has
    one root, which `find_equilibria` solves for on the response piece
    that holds it.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    p_sp, p_ps = compile_response(spec)(i)
    return -delta * i - (gamma * delta / beta) * p_sp + gamma * (1.0 - delta / beta - i) * p_ps


def jacobian(params: ModelParams, spec: ResponseSpec, x: State) -> tuple[tuple[float, float], tuple[float, float]]:
    """Jacobian of the (smooth branch of the) field at ``x``.

        j11 = -beta*i - gamma*(p_sp + p_ps)
        j12 = -beta*s - gamma*s*p_sp' - gamma*p_ps + gamma*(1-s-i)*p_ps'
        j21 =  beta*i
        j22 =  beta*s - delta

    The response and its slopes come from one lookup of the row that holds
    i (`model._response_at`): the right-slope convention at kinks, and
    zero slopes for a step.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    s, i = x.s, x.i
    p_sp, p_ps, d_sp, d_ps = _response_at(spec, i)
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
    P+ and P- are minus the S-rates of the upper and lower
    `model._piece_fields` of ``StepResponse(i_star)``, the fields
    `integrate` steps on.  Q and the origin partials are closed forms for
    finite-difference cross-checks: the I-rate's beta*(delta/beta) - delta
    leaves a rounding residue that Q's second difference would magnify.
    """

    beta: float
    gamma: float
    delta: float
    i_star: float

    def _side(self, k: int, x: float, y: float) -> float:
        params = ModelParams(self.beta, self.gamma, self.delta)
        rhs = _piece_fields(params, StepResponse(self.i_star))[k][2]
        return -rhs(self.delta / self.beta - x, self.i_star + y)[0]

    def p_plus(self, x: float, y: float) -> float:
        return self._side(-1, x, y)

    def p_minus(self, x: float, y: float) -> float:
        return self._side(0, x, y)

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
    """Stability of the sliding point via the one-sided quantities A+/A-
    (`_sliding_report`).  `HypothesisViolated` means that `find_equilibria`
    lists no X2 to classify."""
    last = find_equilibria_step(params, i_star)[-1]
    if last.kind is not EquilibriumKind.SLIDING:
        raise HypothesisViolated(
            f"no sliding point at i_star = {i_star}: {last.kind.value} is listed last"
        )
    return _sliding_report(params, i_star)


def _sliding_report(params: ModelParams, i_star: float) -> StabilityReport:
    """Stability of the sliding point X2 on L = {i == i_star}, which the
    caller has found listed:

        A+- = (2/3) * ((P_x + Q_y)/P - Q_xx/(2*Q_x))   at the origin,

    evaluated with the respective one-sided P; here Q_y = Q_xx = 0.  The
    point is asymptotically stable iff A+ - A- < 0, given P-(0,0) < 0 <
    P+(0,0); where either is 0 (X1 = X2, or underflow) the verdict is
    BOUNDARY, without A+-.
    """
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
    response: ResponseSpec | float,
    gamma_grid: Sequence[float],
) -> list[SweepRow]:
    """Long-run infected fraction per gamma: the point `find_equilibria`
    lists last, for any `ResponseSpec` (a number means ``StepResponse``).

    It rises with gamma: at the endemic point delta*i = gamma*k(i), with
    k(i) = (1 - delta/beta - i)*p_ps(i) - (delta/beta)*p_sp(i) and k' <= 0
    for every (monotone) response, so di/dgamma = k/(delta - gamma*k') > 0.
    For a step response this is min{(1 - delta/beta)/(1 + delta/gamma),
    i_star} when delta < beta and gamma > 0, and 0 otherwise.
    """
    if isinstance(response, numbers.Real):
        response = StepResponse(response)
    rows = []
    for gamma in gamma_grid:
        # X0 comes first; an endemic or sliding point, when present, last.
        eq = find_equilibria(ModelParams(beta, gamma, delta), response)[-1]
        rows.append(SweepRow(gamma, eq.point.i, eq.kind))
    return rows
