"""Exact stochastic simulation of the finite-population jump process.

Every agent carries an independent clock ringing at rate beta + gamma +
delta, so the aggregate event process is Poisson with the constant rate
n * (beta + gamma + delta) and the initiating agent is uniform.  Each
event draws a type with probabilities proportional to beta : gamma :
delta:

* meeting   — the initiator meets a uniform other agent; a susceptible
  initiator meeting an infected partner becomes infected,
* update    — a susceptible initiator protects with probability p_SP(I)
  and a protected one unprotects with probability p_PS(I), where I is the
  current infected fraction,
* disinfection — an infected initiator becomes protected.

All other combinations are no-ops (the thinning that makes the constant
aggregate rate exact).  Agents are exchangeable here, so only the counts
(n_S, n_I, n_P) evolve; per-agent identity matters only for the
contact-trace engine, which has its own machinery.

Randomness is consumed in a fixed pattern (one gap and three uniforms per
event, drawn in blocks), which makes runs bit-identical for a given seed
across platforms.

The response is evaluated through `model.compile_response`, the scalar
kernel shared with the integrator and the trace engine; at a step
threshold it takes the canonical selection (p_SP, p_PS) = (0, 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .integrator import IntegratorConfig, integrate
from .model import (
    ModelParams,
    ResponseSpec,
    State,
    compile_response,
)

__all__ = [
    "AgentPopulation",
    "SimRun",
    "StudyRow",
    "simulate_ctmc",
    "sup_error",
    "convergence_study",
]

_BLOCK = 1 << 16

# Transitions the event logic can produce, as (dS, dI, dP) jumps.
_ALLOWED_JUMPS = {
    (0, 0, 0),
    (-1, 1, 0),   # infection
    (-1, 0, 1),   # S protects
    (1, 0, -1),   # P unprotects
    (0, -1, 1),   # disinfection
}


@dataclass(frozen=True)
class AgentPopulation:
    """Population counts (n_s, n_i, n_p) for n exchangeable agents."""

    n: int
    counts: tuple[int, int, int]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("population needs at least 2 agents")
        if len(self.counts) != 3:
            raise ValueError("counts must be a (n_s, n_i, n_p) triple")
        if any(int(c) != c or c < 0 for c in self.counts):
            raise ValueError(f"counts must be non-negative integers: {self.counts}")
        if sum(self.counts) != self.n:
            raise ValueError(
                f"counts {self.counts} do not sum to population size {self.n}"
            )
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @classmethod
    def from_fractions(cls, n: int, s0: float, i0: float) -> "AgentPopulation":
        """Round fractions to counts; the susceptible count absorbs the
        (at most one agent of) rounding excess."""
        if s0 < 0.0 or i0 < 0.0 or s0 + i0 > 1.0 + 1e-12:
            raise ValueError(f"fractions ({s0}, {i0}) outside the simplex")
        n_s = round(s0 * n)
        n_i = round(i0 * n)
        excess = n_s + n_i - n
        if excess > 0:
            n_s -= excess
        return cls(n=n, counts=(n_s, n_i, n - n_s - n_i))

    @property
    def fractions(self) -> tuple[float, float, float]:
        n_s, n_i, n_p = self.counts
        return (n_s / self.n, n_i / self.n, n_p / self.n)


@dataclass
class SimRun:
    """One simulated path, sampled on a uniform grid.

    ``counts[k]`` is the population state at ``times[k]`` (the state is
    piecewise constant between events).  When the run was made with
    ``audit=True``, ``transition_counts`` holds the tally of realized
    jumps and ``occupation`` the exact time-integrals of (n_S, n_I, n_P),
    for rate/compensator checks.
    """

    seed: object
    n: int
    sample_dt: float
    times: np.ndarray
    counts: np.ndarray
    final_t: float
    transition_counts: dict[str, int] | None = None
    occupation: tuple[float, float, float] | None = None

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n


@dataclass(frozen=True)
class StudyRow:
    n: int
    mean_error: float
    std_error: float
    runs: int


def simulate_ctmc(
    params: ModelParams,
    spec: ResponseSpec,
    pop0: AgentPopulation,
    t_max: float,
    seed,
    sample_dt: float = 0.1,
    audit: bool = False,
) -> SimRun:
    """Run the jump process from ``pop0`` until ``t_max``.

    ``seed`` may be an int or a sequence of ints (a sequence selects an
    independent substream, e.g. ``(base_seed, run_index)``).  Identical
    seed and arguments give a bit-identical run.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if sample_dt <= 0.0:
        raise ValueError("sample_dt must be positive")
    beta, gamma, delta = params.beta, params.gamma, params.delta
    resp = compile_response(spec)
    n = pop0.n
    n_s, n_i, n_p = pop0.counts
    total = beta + gamma + delta
    lam = n * total
    p_meet = beta / total
    p_meet_update = (beta + gamma) / total
    inv_n = 1.0 / n
    inv_nm1 = 1.0 / (n - 1)
    rng = np.random.default_rng(seed)

    k_max = int(math.floor(t_max / sample_dt + 1e-9))
    ts: list[float] = []
    cs: list[tuple[int, int, int]] = []
    next_k = 0
    next_t = 0.0

    tallies = {"infect": 0, "protect": 0, "unprotect": 0, "recover": 0}
    occ_s = occ_i = occ_p = 0.0

    t = 0.0
    done = False
    while not done:
        gaps = rng.exponential(1.0 / lam, _BLOCK).tolist()
        uu = rng.random((_BLOCK, 3))
        u1s = uu[:, 0].tolist()
        u2s = uu[:, 1].tolist()
        u3s = uu[:, 2].tolist()
        for gap, u1, u2, u3 in zip(gaps, u1s, u2s, u3s):
            te = t + gap
            while next_k <= k_max and next_t < te:
                ts.append(next_t)
                cs.append((n_s, n_i, n_p))
                next_k += 1
                next_t = next_k * sample_dt
            if te > t_max:
                done = True
                break
            if audit:
                occ_s += gap * n_s
                occ_i += gap * n_i
                occ_p += gap * n_p
                before = (n_s, n_i, n_p)
            t = te
            init = u2 * n
            if u1 < p_meet:
                if init < n_s and u3 * (n - 1) < n_i:
                    n_s -= 1
                    n_i += 1
                    if audit:
                        tallies["infect"] += 1
            elif u1 < p_meet_update:
                if init < n_s:
                    if u3 < resp(n_i * inv_n)[0]:
                        n_s -= 1
                        n_p += 1
                        if audit:
                            tallies["protect"] += 1
                elif init >= n_s + n_i:
                    if u3 < resp(n_i * inv_n)[1]:
                        n_p -= 1
                        n_s += 1
                        if audit:
                            tallies["unprotect"] += 1
            else:
                if n_s <= init < n_s + n_i:
                    n_i -= 1
                    n_p += 1
                    if audit:
                        tallies["recover"] += 1
            if audit:
                jump = (n_s - before[0], n_i - before[1], n_p - before[2])
                assert jump in _ALLOWED_JUMPS, f"illegal transition {jump}"
                assert n_s + n_i + n_p == n, "count conservation violated"

    if audit:
        occ_s += (t_max - t) * n_s
        occ_i += (t_max - t) * n_i
        occ_p += (t_max - t) * n_p
    while next_k <= k_max:
        ts.append(next_t)
        cs.append((n_s, n_i, n_p))
        next_k += 1
        next_t = next_k * sample_dt

    return SimRun(
        seed=tuple(seed) if isinstance(seed, (list, tuple)) else seed,
        n=n,
        sample_dt=sample_dt,
        times=np.array(ts),
        counts=np.array(cs, dtype=np.int64),
        final_t=t_max,
        transition_counts=tallies if audit else None,
        occupation=(occ_s, occ_i, occ_p) if audit else None,
    )


def _reference_on_grid(params, spec, x0, grid, t_max):
    cfg = IntegratorConfig(t_max=t_max, store_samples=False)
    traj = integrate(params, spec, x0, cfg)
    return traj.evaluate(np.minimum(grid, traj.final_time))


def sup_error(run: SimRun, reference: np.ndarray) -> float:
    """Sup-norm distance of the sampled (S, I) fractions to a reference
    path evaluated on the same grid."""
    frac = run.fractions[:, :2]
    return float(np.max(np.abs(frac - reference)))


def convergence_study(
    params: ModelParams,
    spec: ResponseSpec,
    x0: State,
    n_list,
    runs_per_n: int = 20,
    t_max: float = 50.0,
    seed: int = 0,
    sample_dt: float = 0.1,
) -> list[StudyRow]:
    """Mean sup-norm error of the jump process against the deterministic
    flow, for increasing population sizes.

    Runs are paired across population sizes: run k of every n uses the
    substream (seed, k), so rows are comparable seed-by-seed.  Errors
    decrease with n (law of large numbers); the contract under test is
    error(n_last) < error(n_first) once n_last >= 100 * n_first.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if runs_per_n < 1:
        raise ValueError("runs_per_n must be positive")
    k_max = int(math.floor(t_max / sample_dt + 1e-9))
    grid = np.arange(k_max + 1) * sample_dt
    reference = _reference_on_grid(params, spec, x0, grid, t_max)
    rows = []
    for n in n_list:
        pop0 = AgentPopulation.from_fractions(n, x0.s, x0.i)
        errors = np.empty(runs_per_n)
        for k in range(runs_per_n):
            run = simulate_ctmc(
                params, spec, pop0, t_max, seed=(seed, k), sample_dt=sample_dt
            )
            errors[k] = sup_error(run, reference)
        std = float(errors.std(ddof=1)) if runs_per_n > 1 else 0.0
        rows.append(
            StudyRow(
                n=n,
                mean_error=float(errors.mean()),
                std_error=std / math.sqrt(runs_per_n),
                runs=runs_per_n,
            )
        )
    return rows
