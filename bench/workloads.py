"""Seeded inputs and independent output oracles for the benchmark workloads.

A workload turns the workload seed into an endless stream of `Op`s.  An op
is the argument list of one ``epiresponse`` CLI call, the table file that
call writes, and a check that reads that file and compares it with an
oracle built from closed forms, numpy or scipy -- never from the package
under test.  Op ``k`` of a stream depends only on the seed and ``k``, so
the same seed gives the same inputs however many ops a run completes.
"""

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

HOUR = 3600.0


@dataclass
class Op:
    """One CLI call: ``argv`` for ``epiresponse.cli.main`` and the table it
    writes.  ``check(path)`` returns ``(problems, measures)``: a list of
    oracle violations (empty when the output is correct) and named numbers
    the oracle measured, such as ``ref_err``."""

    argv: list
    table: Path
    check: Callable[[Path], tuple]
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Percentile reported as op_s_tail: the highest multiple of 5 that
    # leaves at least ten timed ops beyond it in a 24 s run at the typical
    # speed of the reference host (2 vCPUs); a run on a slow host leaves
    # fewer, and the run report gives the count.
    tail_pct: int
    ops: Callable[[Path, int], Iterator[Op]]


def _cfg(path: Path, values: dict) -> Path:
    lines = []
    for key, value in values.items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (tuple, list)):
            value = ",".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_table(path: Path):
    """Header and the rows of a CSV table the CLI wrote, as strings."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows, columns) -> np.ndarray:
    return np.array([[float(row[c]) for c in columns] for row in rows])


# --------------------------------------------------------------- simulate

CTMC = {
    "beta": 1.0,
    "gamma": 1.0,
    "delta": 0.5,
    "kind": "sigmoid",
    "i_star": 0.5,
    "epsilon": 0.001,
    "n": 10_000,
    "s0": 0.99,
    "i0": 0.01,
    "t_max": 50.0,
    "sample_dt": 0.1,
}
# Far above the 0.024-0.051 sup-norm distances seen at n = 10^4.
CTMC_REF_TOL = 0.1


@functools.cache
def mean_field_reference() -> np.ndarray:
    """(s, i) of the mean-field flow on the sample grid by scipy's LSODA."""
    from scipy.integrate import solve_ivp

    beta, gamma, delta = CTMC["beta"], CTMC["gamma"], CTMC["delta"]
    lo, eps = CTMC["i_star"] - 0.5 * CTMC["epsilon"], CTMC["epsilon"]

    def rhs(_t, y):
        s, i = y
        p_sp = min(max((i - lo) / eps, 0.0), 1.0)
        return (
            -beta * s * i - gamma * s * p_sp + gamma * (1.0 - s - i) * (1.0 - p_sp),
            (beta * s - delta) * i,
        )

    sol = solve_ivp(
        rhs,
        (0.0, CTMC["t_max"]),
        (CTMC["s0"], CTMC["i0"]),
        method="LSODA",
        t_eval=_ctmc_grid(),
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T


def _ctmc_grid() -> np.ndarray:
    k_max = int(math.floor(CTMC["t_max"] / CTMC["sample_dt"] + 1e-9))
    return np.arange(k_max + 1) * CTMC["sample_dt"]


def check_simulate(path: Path, seed: int):
    """Grid times, conservation n_s + n_i + n_p = n with no negative count,
    the op's seed echoed, and the sup-norm distance of the (s, i)
    fractions to the mean-field flow within `CTMC_REF_TOL`."""
    header, rows = _read_table(path)
    if header != ["t", "n_s", "n_i", "n_p", "seed"]:
        return [f"header {header}"], {}
    n, grid = CTMC["n"], _ctmc_grid()
    if len(rows) != grid.size:
        return [f"{len(rows)} rows, expected {grid.size}"], {}
    problems = []
    if np.max(np.abs(_floats(rows, [0])[:, 0] - grid)) > 1e-9:
        problems.append("sample times off the grid")
    counts = np.array([[int(row[c]) for c in (1, 2, 3)] for row in rows])
    if np.any(counts < 0):
        problems.append("negative count")
    if np.any(counts.sum(axis=1) != n):
        problems.append(f"n_s + n_i + n_p != {n}")
    if any(int(row[4]) != seed for row in rows):
        problems.append("seed column differs from the op seed")
    ref_err = float(np.max(np.abs(counts[:, :2] / n - mean_field_reference())))
    if not ref_err <= CTMC_REF_TOL:
        problems.append(f"sup-norm distance {ref_err} to the mean-field flow")
    return problems, {"ref_err": ref_err}


def ctmc_ops(work: Path, seed: int) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    config = _cfg(work / "simulate.cfg", CTMC)
    k = 0
    while True:
        op_seed = int(rng.integers(0, 2**31 - 1))
        out = work / "ops" / f"op{k}"
        yield Op(
            argv=["simulate", "--config", str(config), "--out", str(out),
                  "--seed", str(op_seed)],
            table=out / "run.csv",
            check=lambda path, s=op_seed: check_simulate(path, s),
            params={"seed": op_seed},
        )
        k += 1


# ------------------------------------------------------------------ basin


def basin_grid(grid_n: int) -> list:
    axis = np.linspace(0.0, 1.0, grid_n)
    return [(float(s), float(i)) for s in axis for i in axis if s + i <= 1.0 + 1e-12]


def check_basin(path: Path, grid_n: int, endemic_label: str):
    """Closed form for the drawn parameters: a start with i0 = 0 stays
    infection-free and reaches (1, 0); every other start ends at the
    unique interior attractor, the sliding point for a step response with
    I1 = gamma*(1 - delta/beta)/(gamma + delta) >= i_star, the endemic
    point for the tabulated ramp."""
    header, rows = _read_table(path)
    if header != ["s0", "i0", "label"]:
        return [f"header {header}"], {}
    grid = basin_grid(grid_n)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"], {}
    problems = []
    for (s0, i0), row in zip(grid, rows):
        if (float(row[0]), float(row[1])) != (s0, i0):
            problems.append(f"start {row[:2]} off the grid")
            continue
        want = "disease_free" if i0 == 0.0 else endemic_label
        if row[2] != want:
            problems.append(f"start ({s0}, {i0}): {row[2]}, expected {want}")
    return problems, {}


def latin_hypercube(rng: np.random.Generator, bounds, block: int = 8) -> Iterator[tuple]:
    """Uniform draws on a box, stratified within each block of ``block``
    draws: every coordinate hits each of ``block`` equal slices once.  Each
    draw is still uniform, but a run's mix of op costs does not depend on
    how its seed happens to cluster the parameters."""
    while True:
        cols = [
            lo + (hi - lo) * (rng.permutation(block) + rng.random(block)) / block
            for lo, hi in bounds
        ]
        yield from zip(*(c.tolist() for c in cols))


def _basin_ops(work: Path, seed: int, grid_n: int, tabulated: bool) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    beta, delta = 1.0, 0.5
    # gamma ~ U[0.8, 1.25]; the second coordinate is the ramp start a or
    # the threshold i_star, both ~ U[0.15, 0.25].
    draws = latin_hypercube(rng, [(0.8, 1.25), (0.15, 0.25)])
    k = 0
    while True:
        gamma, x = next(draws)
        values = {"beta": beta, "gamma": gamma, "delta": delta}
        if tabulated:
            a = x
            values.update(
                kind="tabulated",
                knots=(0.0, a, a + 0.05, 1.0),
                p_sp_values=(0.0, 0.0, 1.0, 1.0),
                p_ps_values=(1.0, 1.0, 0.0, 0.0),
            )
            params = {"gamma": gamma, "a": a}
            label = "endemic"
        else:
            i_star = x
            values.update(kind="step", i_star=i_star)
            params = {"gamma": gamma, "i_star": i_star}
            i1 = gamma * (1.0 - delta / beta) / (gamma + delta)
            label = "sliding" if i1 >= i_star else "endemic"
        values["grid_n"] = grid_n
        out = work / "ops" / f"op{k}"
        config = _cfg(work / f"basin{k}.cfg", values)
        yield Op(
            argv=["basin", "--config", str(config), "--out", str(out)],
            table=out / "basin.csv",
            check=lambda path, lab=label: check_basin(path, grid_n, lab),
            params=params,
        )
        k += 1


FILIPPOV_GRID_N = 20
# 10 x 10 (55 starts) keeps one op near 0.5 s; 20 x 20 takes 2-3 s, too
# few ops a run for a tail percentile.
TABULATED_GRID_N = 10


def filippov_ops(work: Path, seed: int) -> Iterator[Op]:
    return _basin_ops(work, seed, FILIPPOV_GRID_N, tabulated=False)


def tabulated_ops(work: Path, seed: int) -> Iterator[Op]:
    return _basin_ops(work, seed, TABULATED_GRID_N, tabulated=True)


# ------------------------------------------------------------------ trace

TRACE_NODES = 41
TRACE_DAYS = 7
TRACE_PAIR_RATE = 1.0 / (40 * HOUR)
TRACE_CLASS1 = 8
TRACE_GRID_DT = 60.0
TRACE = {
    "gamma": "1 per_hour",
    "delta": f"{1.0 / 6.0!r} per_hour",
    "i_star": 0.1,
    "epsilon": 0.001,
    "i_star2": 0.9,
    "epsilon2": 0.001,
    "split": TRACE_CLASS1 / TRACE_NODES,
    "runs": 30,
    "grid_dt": TRACE_GRID_DT,
}


def write_contacts(path: Path, rng: np.random.Generator) -> float:
    """Complete mixing: every pair meets at the points of its own Poisson
    process over the span, instantaneously.  Returns the last contact
    time, which the program takes as the trace span."""
    duration = TRACE_DAYS * 86400.0
    a, b = np.triu_indices(TRACE_NODES, k=1)
    per_pair = rng.poisson(TRACE_PAIR_RATE * duration, size=a.size)
    if np.any(np.bincount(np.concatenate([a[per_pair > 0], b[per_pair > 0]]),
                          minlength=TRACE_NODES) == 0):
        raise RuntimeError("a node drew no contact; the trace would lose it")
    times = rng.uniform(0.0, duration, size=int(per_pair.sum()))
    rows = np.column_stack([np.repeat(a, per_pair), np.repeat(b, per_pair)])
    order = np.argsort(times, kind="stable")
    lines = [
        f"{rows[j, 0]},{rows[j, 1]},{t!r},{t!r}" for j, t in zip(order, times[order].tolist())
    ]
    path.write_text("\n".join(lines) + "\n")
    return float(times.max())


def check_trace(path: Path, span: float):
    """Grid length after the transient cut, fractions in [0, 1], s + i <= 1,
    and the totals as class-size-weighted means of the class columns."""
    header, rows = _read_table(path)
    if header != ["t", "s_total", "i_total", "s_c1", "i_c1", "s_c2", "i_c2"]:
        return [f"header {header}"], {}
    k_max = int(math.floor(span / TRACE_GRID_DT + 1e-9))
    cut = 0.1 * span
    cut_idx = 0
    while cut_idx * TRACE_GRID_DT < cut:
        cut_idx += 1
    if len(rows) != k_max + 1 - cut_idx:
        return [f"{len(rows)} rows, expected {k_max + 1 - cut_idx}"], {}
    problems = []
    v = _floats(rows, range(7))
    grid = np.arange(cut_idx, k_max + 1) * TRACE_GRID_DT
    if np.any(v[:, 0] != grid):
        problems.append("sample times off the grid")
    frac = v[:, 1:]
    if np.any(frac < 0.0) or np.any(frac > 1.0):
        problems.append("fraction outside [0, 1]")
    for s_col, i_col in ((0, 1), (2, 3), (4, 5)):
        if np.any(frac[:, s_col] + frac[:, i_col] > 1.0 + 1e-12):
            problems.append("s + i > 1")
    n1, n2 = TRACE_CLASS1, TRACE_NODES - TRACE_CLASS1
    for total, c1, c2, name in ((0, 2, 4, "s"), (1, 3, 5, "i")):
        weighted = (n1 * frac[:, c1] + n2 * frac[:, c2]) / TRACE_NODES
        if np.max(np.abs(frac[:, total] - weighted)) > 1e-12:
            problems.append(f"{name}_total is not the class-weighted mean")
    return problems, {}


def trace_ops(work: Path, seed: int) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    contacts = work / "contacts.csv"
    span = write_contacts(contacts, rng)
    config = _cfg(work / "trace.cfg", TRACE)
    k = 0
    while True:
        op_seed = int(rng.integers(0, 2**31 - 1))
        out = work / "ops" / f"op{k}"
        yield Op(
            argv=["trace", "--config", str(config), "--out", str(out),
                  "--seed", str(op_seed), str(contacts)],
            table=out / "trace_avg.csv",
            check=lambda path: check_trace(path, span),
            params={"seed": op_seed},
        )
        k += 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ctmc-meanfield",
            "Criterion 07 jump process, ~1.25M clock events an op, mostly thinned "
            "no-ops: a direct-method change shows here. Skips integrator, model, "
            "traces. op_s_tail = p70 of ~33 ops.",
            70,
            ctmc_ops,
        ),
        Workload(
            "filippov-basin",
            "Step-response basin, sliding regime: ~25k switching-line crossings an "
            "op with spiral capture; event location shows here, no model-layer "
            "calls. op_s_tail = p60 of ~28 ops.",
            60,
            filippov_ops,
        ),
        Workload(
            "smooth-tabulated",
            "Tabulated-ramp basin: same integrator, no events, np.interp response "
            "calls dominate: a response-kernel change shows here, not on "
            "filippov-basin. op_s_tail = p70 of ~38 ops.",
            70,
            tabulated_ops,
        ),
        Workload(
            "trace-two-class",
            "Criterion 08 replay, 41 nodes, 2 classes, 30 runs: grid sampling and "
            "~63k written cells dominate; skips integrator and ctmc. "
            "op_s_tail = p55 of ~21 ops.",
            55,
            trace_ops,
        ),
    )
}
