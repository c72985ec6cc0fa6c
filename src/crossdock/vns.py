"""Variable neighborhood search over dock assignments.

Classic scheme: shake in N_k (k random truck reassignments), descend with
single-reassignment (N_1) and pairwise-swap (N_2) local search, move and
reset k on strict improvement, otherwise grow k. Candidates are priced by
``exact._Tables.leaf_value``, which B&B shares: under a finite capacity a
neighbour is priced only as far as it can beat the running best, every other
query in full. Later visits read a memo. A time budget also stops a buffer
selection in progress (a deadline passed to the pricing call); the search
then returns its best fully priced assignment.
The final incumbent's transfers are built by ``_Tables.build_solution`` from
the decision that priced it, so the result is a feasible solution of the
chosen formulation with the value the search compared. Deterministic for a
fixed seed; the RNG algorithm identifier is recorded in the result.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import subproblem
from .exact import OptimizeResult, _Tables, _UNDOCKED, _result
from .formulations import Formulation
from .model import EPS, Instance, _check_seconds, _integer, validate_instance

RNG_ALGORITHM = "PCG64"

#: Largest shake: N_k reassigns k random trucks, k = 1..K_MAX.
K_MAX = 3


@dataclass(frozen=True)
class VnsConfig:
    iter_max: int = 50
    time_budget: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        _integer("iter_max", self.iter_max, 0)
        _integer("rng_seed", self.rng_seed, 0)
        if self.time_budget is not None:
            _check_seconds("time_budget", self.time_budget)


def greedy_initial(tables: _Tables, evaluate) -> list[int]:
    """Greedy start: heaviest-penalty trucks first, each to the feasible dock
    with the best immediate gain (strictly improving, lowest index on ties).
    Candidates are priced by ``evaluate``: the value of an assignment, as
    :meth:`_Tables.leaf_value` gives it in full, or None if infeasible."""
    n, m, weight = tables.n, tables.m, tables.weight
    y0 = [_UNDOCKED] * n
    value = evaluate(y0)
    for i in sorted(range(n), key=lambda i: (-weight[i], i)):
        candidates = []
        for k in range(m):
            y0[i] = k
            result = evaluate(y0)
            if result is not None:
                candidates.append((result, k))
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
    """Undock the later-arriving truck of each clashing pair, in (i, j) order
    (undocking never makes a clash), until feasible; returns the repaired
    assignment and its ``evaluate`` result."""
    inst, pair = tables.inst, tables.pair
    for i, j in itertools.combinations(range(tables.n), 2):
        ki, kj = y0[i], y0[j]
        if _UNDOCKED not in (ki, kj) and pair[i][j][ki][kj] == math.inf:
            y0[max(i, j, key=lambda u: (inst.arrival[u], u))] = _UNDOCKED
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
    proven optimal). A ``time_budget`` that runs out, even inside a buffer
    selection, ends the search at the best fully priced assignment: the empty
    one if the greedy start did not finish.

    The result's trace holds the incumbent objective after the greedy start
    and after every iteration; ``nodes_explored`` counts the evaluations of
    the greedy start, the repairs and the search, repeats included.

    Every query makes one pricing call, :meth:`_Tables.leaf_value`, which
    answers None for a clash too. The run memo holds, per assignment
    visited, its full result (None for an infeasible assignment) or the
    highest target it failed to beat. Under a finite ``Rules.limit`` the
    N_1 and N_2 moves pass the running best as that target, and a neighbour
    that cannot beat it is priced no further: a later visit at a target no
    higher is answered from the memo, a higher target or a full query (the
    greedy start, ``_repair`` and the final value) prices it again. Under an
    unbounded buffer (``limit`` of ``math.inf``) every query is priced in
    full, one table sum, so the memo answers every revisit.
    """
    start = time.perf_counter()
    validate_instance(inst)
    cfg = cfg or VnsConfig()
    tables = _Tables(inst, form, include_diagonal)
    n, m = tables.n, tables.m
    rng = np.random.default_rng(cfg.rng_seed)
    deadline = None if cfg.time_budget is None else start + cfg.time_budget
    evaluations = 0
    memo: dict[tuple[int, ...], float | None] = {}
    beaten: dict[tuple[int, ...], float] = {}

    def timed_out() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    def evaluate(y0, target=math.inf):
        nonlocal evaluations
        evaluations += 1
        key = tuple(y0)
        if key in memo:
            return memo[key]
        if target <= beaten.get(key, -math.inf):
            return None
        if tables.rules.limit == math.inf:
            target = math.inf  # a full value answers every later visit
        result = tables.leaf_value(y0, target, deadline)
        if result is None and target < math.inf:
            beaten[key] = target
            return None
        memo[key] = result
        return result

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
                    result = evaluate(y0, best_value)
                    y0[i] = current
                    if result is None:
                        continue
                    if result < best_value - EPS:
                        best_move, best_value = (i, k), result
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
                    result = evaluate(y0, best_value)
                    y0[i], y0[j] = y0[j], y0[i]
                    if result is None:
                        continue
                    if result < best_value - EPS:
                        best_swap, best_value = (i, j), result
            if best_swap:
                i, j = best_swap
                y0[i], y0[j] = y0[j], y0[i]
                value = best_value
                improved = True
        return y0, value

    trace = []
    try:
        incumbent = greedy_initial(tables, evaluate)
        incumbent_value = evaluate(incumbent)
        trace.append(incumbent_value)
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
                shaken, value = _repair(tables, shaken, evaluate)
                shaken, value = local_search(shaken, value)
                if value < incumbent_value - EPS:
                    incumbent, incumbent_value = list(shaken), value
                    k = 1
                else:
                    k += 1
            trace.append(incumbent_value)
    except subproblem._OutOfBudget:
        if not trace:  # the greedy start did not finish
            incumbent = [_UNDOCKED] * n
            incumbent_value = tables.leaf_value(incumbent)
        trace.append(incumbent_value)

    solution = tables.build_solution(incumbent)
    return _result(
        tables, solution, start, evaluations, "heuristic", trace, RNG_ALGORITHM
    )
