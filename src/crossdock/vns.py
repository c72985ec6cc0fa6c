"""Variable neighborhood search over dock assignments.

Classic scheme: shake in N_k (k random truck reassignments), descend with
single-reassignment (N_1) and pairwise-swap (N_2) local search, move and
reset k on strict improvement, otherwise grow k. Candidates are priced by
``exact._Tables.evaluate``, which B&B shares, and each distinct assignment is
priced once per run: later visits read a memo. The final incumbent's
transfers are built through the subproblem, so the result is a feasible
solution of the chosen formulation. Deterministic for a fixed seed; the RNG
algorithm identifier is recorded in the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exact import OptimizeResult, _Tables, _UNDOCKED
from .formulations import Formulation, objective_value
from .model import EPS, Instance

RNG_ALGORITHM = "PCG64"

#: Largest shake: N_k reassigns k random trucks, k = 1..K_MAX.
K_MAX = 3


@dataclass(frozen=True)
class VnsConfig:
    iter_max: int = 50
    time_budget: float | None = None
    rng_seed: int = 0


def greedy_initial(tables: _Tables, evaluate) -> list[int]:
    """Greedy start: heaviest-penalty trucks first, each to the feasible dock
    with the best immediate gain (strictly improving, lowest index on ties).
    Candidates are priced by ``evaluate``, as :meth:`_Tables.evaluate`."""
    inst = tables.inst
    n, m = tables.n, tables.m
    weight = [
        sum(
            inst.penalty[i][j] * inst.flow[i][j] + inst.penalty[j][i] * inst.flow[j][i]
            for j in range(n)
            if j != i
        )
        for i in range(n)
    ]
    y0 = [_UNDOCKED] * n
    value = evaluate(y0)[0]
    for i in sorted(range(n), key=lambda i: (-weight[i], i)):
        candidates = []
        for k in range(m):
            y0[i] = k
            result = evaluate(y0)
            if result is not None:
                candidates.append((result[0], k))
        y0[i] = _UNDOCKED
        if candidates:
            cand_value, cand_k = min(candidates)
            # dock on zero-gain ties too: a lone truck gains nothing yet but
            # enables later pairs; skip only strictly worsening docks
            if cand_value <= value + EPS:
                y0[i] = cand_k
                value = cand_value
    return y0


def _repair(tables: _Tables, y0, evaluate):
    """Undock the later-arriving truck of each clashing pair until feasible;
    returns the repaired assignment and its ``evaluate`` result."""
    inst = tables.inst
    while True:
        pair = tables.first_clash(y0)
        if pair is None:
            break
        i, j = pair
        later = max(i, j, key=lambda u: (inst.arrival[u], u))
        y0[later] = _UNDOCKED
    # capacity can still bite under CROSS-DOCK with finite C: the forced
    # transfers may overflow; shed the latest-arriving docked truck
    while (result := evaluate(y0)) is None:
        docked = [i for i in range(tables.n) if y0[i] != _UNDOCKED]
        later = max(docked, key=lambda u: (inst.arrival[u], u))
        y0[later] = _UNDOCKED
    return y0, result


def vns_solve(
    inst: Instance,
    form: Formulation,
    cfg: VnsConfig | None = None,
    include_diagonal: bool = False,
) -> OptimizeResult:
    """Run VNS from the greedy start and return the best incumbent (never
    proven optimal).

    The result's trace holds the incumbent objective after the greedy start
    and after every iteration; ``nodes_explored`` counts the evaluations of
    the greedy start, the repairs and the search, repeats included. Each
    evaluation's result (None for an infeasible assignment) is memoised by
    assignment for the run, so the memo holds one entry per distinct
    assignment visited.
    """
    cfg = cfg or VnsConfig()
    tables = _Tables(inst, form, include_diagonal)
    n, m = tables.n, tables.m
    rng = np.random.default_rng(cfg.rng_seed)
    start = time.perf_counter()
    evaluations = 0
    memo: dict[tuple[int, ...], tuple[float, bool] | None] = {}

    def timed_out() -> bool:
        return (
            cfg.time_budget is not None
            and time.perf_counter() - start > cfg.time_budget
        )

    def evaluate(y0):
        nonlocal evaluations
        evaluations += 1
        key = tuple(y0)
        if key not in memo:
            memo[key] = tables.evaluate(y0)
        return memo[key]

    incumbent = greedy_initial(tables, evaluate)
    incumbent_value = evaluate(incumbent)[0]

    def local_search(y0, value):
        improved = True
        while improved and not timed_out():
            improved = False
            # N_1: single reassignment
            best_move, best_value = None, value
            for i in range(n):
                current = y0[i]
                for k in list(range(m)) + [_UNDOCKED]:
                    if k == current:
                        continue
                    y0[i] = k
                    result = evaluate(y0)
                    y0[i] = current
                    if result is None:
                        continue
                    if result[0] < best_value - EPS:
                        best_move, best_value = (i, k), result[0]
            if best_move:
                y0[best_move[0]] = best_move[1]
                value = best_value
                improved = True
                continue
            # N_2: pairwise dock swap
            best_swap = None
            for i in range(n):
                for j in range(i + 1, n):
                    if y0[i] == y0[j]:
                        continue
                    y0[i], y0[j] = y0[j], y0[i]
                    result = evaluate(y0)
                    y0[i], y0[j] = y0[j], y0[i]
                    if result is None:
                        continue
                    if result[0] < best_value - EPS:
                        best_swap, best_value = (i, j), result[0]
            if best_swap:
                i, j = best_swap
                y0[i], y0[j] = y0[j], y0[i]
                value = best_value
                improved = True
        return y0, value

    trace = [incumbent_value]
    for _ in range(cfg.iter_max):
        if timed_out():
            break
        k = 1
        while k <= K_MAX and not timed_out():
            shaken = list(incumbent)
            for _ in range(k):
                truck = int(rng.integers(0, n))
                option = int(rng.integers(0, m + 1))
                shaken[truck] = _UNDOCKED if option == m else option
            shaken, (value, _) = _repair(tables, shaken, evaluate)
            shaken, value = local_search(shaken, value)
            if value < incumbent_value - EPS:
                incumbent, incumbent_value = list(shaken), value
                k = 1
            else:
                k += 1
        trace.append(incumbent_value)

    built = tables.build_solution(incumbent)
    solution, _ = built
    breakdown = objective_value(inst, solution, form, include_diagonal)
    return OptimizeResult(
        best=solution,
        objective=breakdown,
        proven_optimal=False,
        nodes_explored=evaluations,
        wall_time=time.perf_counter() - start,
        bound_at_root=tables.base + tables.root_opt_rest(),
        status="heuristic",
        trace=tuple(trace),
        rng_algorithm=RNG_ALGORITHM,
    )
