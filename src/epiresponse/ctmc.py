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

A run shares trace replay's clock (`sampling.clock_blocks`) and response
table (`sampling.response_table`, which holds the canonical selection
(p_SP, p_PS) = (0, 1) at a step threshold), and logs its jumps in time
order, one log per row of `sampling.MOVES`, for `sampling.counts_on_grid`;
the transition tallies and occupation integrals follow from the same
logs.  At n >= 1000 it drops in numpy each event that is a no-op for
every state within n // 40 agents of its window's start state, and passes
the rest, in order, to the exact per-event tests: same stream, same jumps.
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .integrator import IntegratorConfig, integrate
from .model import ModelParams, ResponseSpec, State
from .sampling import (
    MOVES,
    TABLE_EVENTS,
    check_work,
    clock_blocks,
    counts_on_grid,
    response_table,
    uniform_grid,
)

__all__ = [
    "AgentPopulation",
    "SimRun",
    "StudyRow",
    "simulate_ctmc",
    "sup_error",
    "convergence_study",
]

# The names of the rows of MOVES in `SimRun.transition_counts`.
_TRANSITIONS = ("infect", "protect", "unprotect", "recover")


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
        (at most one agent of) rounding excess.  ``(s0, i0)`` must be a
        `State`, i.e. lie in the unit simplex."""
        State(s0, i0)
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
    piecewise constant between events).  ``transition_counts`` holds the
    tally of realized jumps by type and ``occupation`` the time-integrals
    of (n_S, n_I, n_P) over [0, final_t], for rate/compensator checks;
    `simulate_ctmc` always fills both, from its jump logs, and counts the
    ``clock_events`` drawn and the ``passed_events`` not certain no-ops.
    """

    seed: object
    n: int
    sample_dt: float
    times: np.ndarray
    counts: np.ndarray
    final_t: float
    transition_counts: dict[str, int] | None = None
    occupation: tuple[float, float, float] | None = None
    clock_events: int = 0
    passed_events: int = 0

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
) -> SimRun:
    """Run the jump process from ``pop0`` until ``t_max``.

    ``seed`` seeds the clock, `sampling.clock_blocks`; identical seed and
    arguments give a bit-identical run.  A run expecting more than
    `sampling.MAX_CLOCK_EVENTS` clock events, its table counted, or a grid
    of more than `sampling.MAX_GRID_POINTS`, is refused before anything is
    built.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if not (sample_dt > 0.0 and math.isfinite(sample_dt)):
        raise ValueError("sample_dt must be positive and finite")
    beta, gamma, delta = params.beta, params.gamma, params.delta
    n = pop0.n
    n_s, n_i, _ = pop0.counts
    total = beta + gamma + delta
    lam = n * total
    if math.isinf(lam):  # the clock would never advance
        raise ValueError("total event rate n * (beta + gamma + delta) overflows")
    check_work("n * (beta + gamma + delta) * t_max", n * (total * t_max + TABLE_EVENTS))
    grid = uniform_grid(t_max, sample_dt)
    p_meet = beta / total
    p_meet_update = (beta + gamma) / total
    p_sp, p_ps = response_table(spec, n)

    logs = tuple(array("d") for _ in MOVES)
    infect, protect, unprotect, recover = (log.append for log in logs)
    drawn = passed = 0
    margin = n // 40
    for times, uu in clock_blocks(seed, lam, t_max):
        drawn += times.size
        u1, u3, inits = uu[:, 0], uu[:, 2], uu[:, 1] * n
        start = 0
        while start < times.size:
            # Below n = 1,000 a box of n // 40 agents is too narrow to pay:
            # filtering at every n (margin at least 25) gives the same runs
            # but took 2-8x longer at n = 30 to 100 and 1.7-2x at n = 999
            # (step 0.2 and sigmoid 0.2/0.05, beta 1, gamma 1, delta 0.5,
            # t_max 50; 2-core x86, Python 3.11).  The threshold suits
            # narrow ramps only: sigmoid 0.2/0.05 took ~57 ms filtered at
            # n = 1,000 against ~36 ms unfiltered at n = 999, where sigmoid
            # 0.5/0.001 breaks even.
            if n < 1000:
                at, start = np.arange(times.size), times.size
            else:
                # Until `margin` events of a window pass, n_s, n_i and
                # n_s + n_i stay within `margin` of their start values; an
                # event that is a no-op for every state in that box is
                # dropped.  Rounding to floats keeps the bounds' order, and
                # 1e-12 covers a tabulated ramp passing its ends by ulps.
                w = slice(start, start + 8 * margin)
                init, v1, v3 = inits[w], u1[w], u3[w]
                if_s = init <= n_s + margin
                may_sp = v3 < p_sp[min(n_i + margin, n)] + 1e-12
                may_ps = v3 < p_ps[max(n_i - margin, 0)] + 1e-12
                meet = if_s & (v3 * (n - 1) <= n_i + margin)
                update = if_s & may_sp | (init >= n_s + n_i - margin) & may_ps
                recovery = (init >= n_s - margin) & (init <= n_s + n_i + margin)
                keep = np.where(v1 < p_meet_update, update, recovery)
                keep = np.where(v1 < p_meet, meet, keep)
                at = np.flatnonzero(keep)[:margin] + start
                start = int(at[-1]) + 1 if at.size == margin else w.stop
            passed += at.size
            events = (times[at], u1[at], inits[at], u3[at])
            for te, v1, init, v3 in zip(*(column.tolist() for column in events)):
                if v1 < p_meet:
                    if init < n_s and v3 * (n - 1) < n_i:
                        n_s -= 1
                        n_i += 1
                        infect(te)
                elif v1 < p_meet_update:
                    if init < n_s:
                        if v3 < p_sp[n_i]:
                            n_s -= 1
                            protect(te)
                    elif init >= n_s + n_i:
                        if v3 < p_ps[n_i]:
                            n_s += 1
                            unprotect(te)
                elif n_s <= init < n_s + n_i:
                    n_i -= 1
                    recover(te)

    # A jump at time t adds its move to the occupation integrals for the
    # remaining t_max - t.
    held = [len(log) * t_max - math.fsum(log) for log in logs]
    occupation = np.multiply(pop0.counts, t_max) + np.dot(held, MOVES)
    return SimRun(
        seed=tuple(seed) if isinstance(seed, (list, tuple)) else seed,
        n=n,
        sample_dt=sample_dt,
        times=grid,
        counts=counts_on_grid(pop0.counts, MOVES, logs, grid),
        final_t=t_max,
        transition_counts=dict(zip(_TRANSITIONS, map(len, logs))),
        occupation=tuple(occupation.tolist()),
        clock_events=drawn,
        passed_events=passed,
    )


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

    A study whose runs together cost more than `sampling.MAX_CLOCK_EVENTS`
    (`sampling.check_work`: clock events, grid points, table counts and a
    fixed cost per run) is refused before the reference flow is integrated.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if runs_per_n < 1:
        raise ValueError("runs_per_n must be positive")
    if not (sample_dt > 0.0 and math.isfinite(sample_dt)):
        raise ValueError("sample_dt must be positive and finite")
    total = params.beta + params.gamma + params.delta
    grid = uniform_grid(t_max, sample_dt)
    check_work(
        f"runs_per_n = {runs_per_n} runs for each n in n_list = {n_list}",
        runs_per_n * sum(n * (total * t_max + TABLE_EVENTS) + grid.size for n in n_list),
        runs_per_n * len(n_list),
    )
    traj = integrate(params, spec, x0, IntegratorConfig(t_max=t_max, store_samples=False))
    reference = traj.evaluate(np.minimum(grid, traj.final_time))
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
