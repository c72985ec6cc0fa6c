"""Exact solvers: branch and bound over dock assignments and a brute-force oracle.

Branching follows arrival order (early trucks constrain precedence most),
docks ascending with "unassigned" last. Nodes are pruned by an admissible
bound: the all-penalties constant, plus the exact net contribution of every
fully decided truck pair, plus an optimistic (capacity-ignoring) contribution
for every undecided pair. ``_Tables`` derives from the compiled rules
(:func:`crossdock.formulations.compile_rules`) one entry per decision the
search makes: one number per pair of docked trucks, what the pair adds in
both directions, infinite where the two may not both be docked that way
(CROSS-DOCK: a forced transfer fails; R-CROSS-DOCK: a shared dock with
overlapping windows), and one per truck for its strict-literal self-flow at
its dock (a unary term, or a constant in the base under CROSS-DOCK). A clash
therefore makes a child's bound infinite. The search reads these tables and
never branches on the model or the diagonal mode. Leaves are priced from the
tables too: under a finite capacity, the table value plus the gain that the
buffer forces the assignment to give up, chosen by the selection kernel of
the subproblem module (:func:`crossdock.subproblem.select_items`). Only the
returned solution's transfer set is built by the subproblem module and
priced by ``objective_value``.

The brute-force oracle enumerates every assignment and always evaluates
transfers through exhaustive subset enumeration, never the per-pair shortcut,
so the two solvers cross-validate each other.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from . import subproblem
from .formulations import (
    Formulation,
    ObjectiveBreakdown,
    ViolationReport,
    check_solution,
    compile_rules,
    objective_value,
)
from .model import EPS, Instance, Solution, total_penalty_constant

BRUTE_FORCE_LIMIT = 10**6

_UNDOCKED = -1  # internal 0-based marker


class InstanceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    max_nodes: int | None = None
    time_limit: float | None = None


@dataclass(frozen=True)
class OptimizeResult:
    best: Solution
    objective: ObjectiveBreakdown
    proven_optimal: bool
    nodes_explored: int
    wall_time: float
    bound_at_root: float
    status: str = "optimal"
    trace: tuple[float, ...] = ()
    rng_algorithm: str | None = None


@dataclass(frozen=True)
class ModelComparison:
    cross_dock: OptimizeResult
    r_cross_dock: OptimizeResult
    absolute_gap: float
    relative_gap_percent: float
    rcd_best_under_cd: ViolationReport

    @property
    def rcd_infeasible_under_cd(self) -> bool:
        return not self.rcd_best_under_cd.feasible


def _shipped(delta: float) -> float:
    """Net delta of an optional transfer: it ships iff it gains more than EPS,
    the selection threshold of :func:`subproblem.select_transfers`."""
    return delta if delta < -EPS else 0.0


class _Tables:
    """Branch-and-bound data derived from the compiled rules, 0-based throughout."""

    def __init__(self, inst: Instance, form: Formulation, include_diagonal: bool):
        n, m = inst.n, inst.m
        rules = compile_rules(inst, form, include_diagonal)
        self.inst = inst
        self.form = form
        self.diag = include_diagonal
        self.cd = form is Formulation.CROSS_DOCK
        self.n, self.m = n, m
        ct, pf, allowed, overlap = rules.ct, rules.pf, rules.allowed, rules.overlap

        self.order = sorted(range(n), key=lambda i: (inst.arrival[i], i))

        # half[i][j][k][l]: net objective delta of the transfer i -> j when
        # i@k and j@l, relative to the all-penalties baseline; infinite where
        # the two trucks may not both be docked that way (CROSS-DOCK: a forced
        # transfer fails; R-CROSS-DOCK: a shared dock with overlapping
        # windows). opt[i][j]: its optimistic value (0 = not both docked).
        half = [[[[0.0] * m for _ in range(m)] for _ in range(n)] for _ in range(n)]
        opt = [[0.0] * n for _ in range(n)]
        for i, j in itertools.permutations(range(n), 2):
            for k in range(m):
                for l in range(m):
                    delta = ct[k][l] - pf[i][j]
                    if self.cd:  # every docked pair ships
                        ok = allowed[i][j][k][l] and allowed[j][i][l][k]
                        value = delta
                    else:  # ships only if allowed and worth more than EPS
                        ok = k != l or not overlap[i][j]
                        value = _shipped(delta) if allowed[i][j][k][l] else 0.0
                    if ok:
                        opt[i][j] = min(opt[i][j], value)
                    half[i][j][k][l] = value if ok else math.inf

        # one number per truck pair and dock pair, read by the search from
        # either truck's side: pair[i][j][k][l] == pair[j][i][l][k]
        docks = range(m)
        self.pair = [
            [
                [[half[i][j][k][l] + half[j][i][l][k] for l in docks] for k in docks]
                for j in range(n)
            ]
            for i in range(n)
        ]
        self.pair_opt = [[opt[i][j] + opt[j][i] for j in range(n)] for i in range(n)]

        # strict-literal self-transfers: free in CROSS-DOCK, so a constant in
        # the base; R-CROSS-DOCK ships truck i's self-flow through its own dock
        # k, a unary term unary[i][k] with optimistic value unary_opt[i]
        # (under a finite capacity they become free_items: (i, i, gain) for
        # each self-transfer worth more than EPS)
        free_self = 0.0
        self.free_items = []
        self.unary = [[0.0] * m for _ in range(n)]
        if include_diagonal and self.cd:
            min_ct = min(ct[k][l] for k in range(m) for l in range(m))
            free_self = sum(_shipped(min_ct - pf[i][i]) for i in range(n))
            self.free_items = [
                (cp.i - 1, cp.i - 1, cp.gain)
                for cp in subproblem.diagonal_candidates_crossdock(inst)
                if cp.gain > EPS
            ]
        elif include_diagonal:
            self.unary = [[_shipped(ct[k][k] - pf[i][i]) for k in range(m)] for i in range(n)]
        self.unary_opt = [min(row) for row in self.unary]
        self.base = total_penalty_constant(inst, include_diagonal) + free_self

        # finite capacity: the buffer intervals and density-greedy weights
        # that evaluate() hands to the selection kernel
        self.rules = rules
        self.footprint = [
            [subproblem.footprint(inst, i + 1, j + 1) for j in range(n)] for i in range(n)
        ]

    def root_opt_rest(self) -> float:
        total = sum(
            self.pair_opt[i][j] for i in range(self.n) for j in range(i + 1, self.n)
        )
        return total + sum(self.unary_opt)

    def first_clash(self, y0) -> tuple[int, int] | None:
        """The first two docked trucks that cannot coexist, if any."""
        docked = [(i, y0[i]) for i in range(self.n) if y0[i] != _UNDOCKED]
        for idx, (i, ki) in enumerate(docked):
            for (j, kj) in docked[idx + 1 :]:
                if self.pair[i][j][ki][kj] == math.inf:
                    return i, j
        return None

    def to_public(self, y0) -> tuple[int, ...]:
        return tuple(0 if k == _UNDOCKED else k + 1 for k in y0)

    def fast_value(self, y0) -> float:
        """Exact objective of a feasible assignment when capacity cannot bind."""
        docked = [(i, y0[i]) for i in range(self.n) if y0[i] != _UNDOCKED]
        value = self.base
        for idx, (i, ki) in enumerate(docked):
            for (j, kj) in docked[idx + 1 :]:
                value += self.pair[i][j][ki][kj]
        for (i, ki) in docked:
            value += self.unary[i][ki]
        return value

    def build_solution(self, y0, force_enumeration: bool = False):
        """Transfers for an assignment via the subproblem.

        The assignment must pass :meth:`first_clash`; under R-CROSS-DOCK that
        is the dock-conflict rule, so only a CROSS-DOCK capacity overflow is
        left to make it infeasible (None). Returns (solution, exact) pairs;
        exact=False marks a heuristic capacity selection.
        """
        inst = self.inst
        y1 = self.to_public(y0)
        if self.cd:
            induced = subproblem.induced_transfers_crossdock(inst, y1, self.diag)
            if isinstance(induced, subproblem.InfeasibilityWitness):
                return None
            if not self.diag:
                return induced, True
            cands = subproblem.diagonal_candidates_crossdock(inst)
            selected, exact, _ = subproblem.select_transfers(
                inst,
                cands,
                forced=induced.transfers,
                include_diagonal=True,
                force_enumeration=force_enumeration,
            )
            transfers = induced.transfers + tuple(
                (cp.i, cp.j, cp.k, cp.l) for cp in selected
            )
            return Solution(dock=y1, transfers=transfers), exact
        sel = subproblem.optimal_transfers_rcrossdock(
            inst, y1, include_diagonal=self.diag, force_enumeration=force_enumeration
        )
        return sel.solution, sel.exact

    def evaluate(self, y0, force_enumeration: bool = False):
        """(objective value, exact flag) of an assignment, or None if infeasible.

        Without force_enumeration the value comes from the tables alone:
        :meth:`fast_value`, which ships every transfer worth more than EPS,
        plus the gain that a finite capacity forces the assignment to give
        up. That gain is what :func:`subproblem.select_items` leaves out of
        the choosable transfers (CROSS-DOCK: the strict-literal self-flows on
        top of the forced load of every docked pair; R-CROSS-DOCK: every
        allowed transfer worth more than EPS), listed in the order
        :func:`subproblem.select_transfers` sorts by, so both pick the same
        subset. A forced load above capacity makes a CROSS-DOCK assignment
        infeasible. force_enumeration always routes through the subproblem's
        exhaustive selection and objective_value (the oracle path).
        """
        if self.first_clash(y0) is not None:
            return None
        if not force_enumeration:
            if self.inst.unbounded_capacity:
                return self.fast_value(y0), True
            return self._capacity_value(y0)
        built = self.build_solution(y0, force_enumeration=True)
        if built is None:
            return None
        sol, exact = built
        total = objective_value(self.inst, sol, self.form, self.diag).total
        return total, exact

    def _capacity_value(self, y0):
        """:meth:`evaluate` under a finite capacity, read from the tables."""
        rules = self.rules
        docked = [(i, y0[i]) for i in range(self.n) if y0[i] != _UNDOCKED]
        if self.cd:
            base = rules.load((i + 1, j + 1) for i, _ in docked for j, _ in docked if i != j)
            if any(occ - rules.capacity > EPS for occ in base):
                return None
            items = self.free_items
        else:
            base = [0.0] * len(rules.events)
            ct, pf, allowed = rules.ct, rules.pf, rules.allowed
            items = []
            for i, ki in docked:
                for j, kj in docked:
                    gain = pf[i][j] - ct[ki][kj]
                    if (i != j or self.diag) and gain > EPS and allowed[i][j][ki][kj]:
                        items.append((i, j, gain))
        gains = [gain for _, _, gain in items]
        _, exact, kept = subproblem.select_items(
            gains,
            [rules.hold[i][j] for i, j, _ in items],
            base,
            rules.capacity,
            [self.footprint[i][j] for i, j, _ in items],
        )
        return self.fast_value(y0) + (sum(gains) - kept), exact


def branch_and_bound(
    inst: Instance,
    form: Formulation,
    budget: Budget | None = None,
    include_diagonal: bool = False,
    on_node=None,
) -> OptimizeResult:
    """Depth-first branch and bound over dock assignments.

    Deterministic: identical inputs give identical node counts and incumbents.
    Returns proven_optimal=True iff the search completed within budget and no
    heuristic leaf evaluation was needed. With an exhausted budget the best
    incumbent found so far is still returned (status "budget_exhausted").
    """
    budget = budget or Budget()
    tables = _Tables(inst, form, include_diagonal)
    n, m = tables.n, tables.m
    start = time.perf_counter()

    y0 = [_UNDOCKED] * n
    state = {
        "best_value": float("inf"),
        "best_y": None,
        "nodes": 0,
        "stopped": False,
        "heuristic": False,
        "trace": [],
    }

    # the empty assignment is always feasible: a guaranteed incumbent
    empty = tables.evaluate(y0)
    state["best_value"], _ = empty
    state["best_y"] = tuple(y0)
    state["trace"].append(state["best_value"])

    bound_at_root = tables.base + tables.root_opt_rest()
    order, pair, pair_opt = tables.order, tables.pair, tables.pair_opt

    def out_of_budget() -> bool:
        if budget.max_nodes is not None and state["nodes"] >= budget.max_nodes:
            return True
        if budget.time_limit is not None and state["nodes"] % 256 == 0:
            return time.perf_counter() - start > budget.time_limit
        return False

    assigned_docked: list[tuple[int, int]] = []

    def recurse(idx: int, committed: float, opt_rest: float):
        state["nodes"] += 1
        if out_of_budget():
            state["stopped"] = True
            return
        if on_node is not None:
            decided = tuple(
                (u + 1, 0 if y0[u] == _UNDOCKED else y0[u] + 1) for u in order[:idx]
            )
            on_node(decided, tables.base + committed + opt_rest)
        if idx == n:
            result = tables.evaluate(y0)
            if result is not None:
                value, exact = result
                if not exact:
                    state["heuristic"] = True
                if value < state["best_value"] - EPS:
                    state["best_value"] = value
                    state["best_y"] = tuple(y0)
                    state["trace"].append(value)
            return
        u = order[idx]
        undecided = order[idx + 1 :]
        pair_u, opt_u, unary_u = pair[u], pair_opt[u], tables.unary[u]

        opt_rest2 = opt_rest - sum(opt_u[s] for s, _ in assigned_docked)
        docked_rest = opt_rest2 - tables.unary_opt[u]
        for k in range(m):
            # a clash with a decided truck makes the sum infinite: never entered
            committed2 = committed
            for s, ks in assigned_docked:
                committed2 += pair_u[s][k][ks]
            committed2 += unary_u[k]
            if tables.base + committed2 + docked_rest < state["best_value"] - EPS:
                y0[u] = k
                assigned_docked.append((u, k))
                recurse(idx + 1, committed2, docked_rest)
                assigned_docked.pop()
                y0[u] = _UNDOCKED
                if state["stopped"]:
                    return

        # leave truck u unassigned: its pairs contribute exactly zero
        for v in undecided:
            opt_rest2 -= opt_u[v]
        opt_rest2 -= tables.unary_opt[u]
        if tables.base + committed + opt_rest2 < state["best_value"] - EPS:
            recurse(idx + 1, committed, opt_rest2)

    recurse(0, 0.0, tables.root_opt_rest())

    completed = not state["stopped"]
    best_y0 = list(state["best_y"])
    built = tables.build_solution(best_y0)
    solution, _ = built
    breakdown = objective_value(inst, solution, form, include_diagonal)
    proven = completed and not state["heuristic"]
    if not completed:
        status = "budget_exhausted"
    elif proven:
        status = "optimal"
    else:
        status = "completed_heuristic"
    return OptimizeResult(
        best=solution,
        objective=breakdown,
        proven_optimal=proven,
        nodes_explored=state["nodes"],
        wall_time=time.perf_counter() - start,
        bound_at_root=bound_at_root,
        status=status,
        trace=tuple(state["trace"]),
    )


def brute_force(
    inst: Instance, form: Formulation, include_diagonal: bool = False
) -> OptimizeResult:
    """Enumerate every dock assignment; transfers solved by exhaustive
    subset enumeration (never the per-pair shortcut or the greedy path)."""
    n, m = inst.n, inst.m
    total_assignments = (m + 1) ** n
    if total_assignments > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"instance_too_large: (m+1)^n = {total_assignments} exceeds "
            f"{BRUTE_FORCE_LIMIT}"
        )
    tables = _Tables(inst, form, include_diagonal)
    start = time.perf_counter()
    options = list(range(m)) + [_UNDOCKED]

    best_value = float("inf")
    best_y = None
    trace = []
    nodes = 0
    for assignment in itertools.product(options, repeat=n):
        nodes += 1
        result = tables.evaluate(list(assignment), force_enumeration=True)
        if result is None:
            continue
        value, _ = result
        if value < best_value - EPS:
            best_value = value
            best_y = assignment
            trace.append(value)

    built = tables.build_solution(list(best_y), force_enumeration=True)
    solution, _ = built
    breakdown = objective_value(inst, solution, form, include_diagonal)
    return OptimizeResult(
        best=solution,
        objective=breakdown,
        proven_optimal=True,
        nodes_explored=nodes,
        wall_time=time.perf_counter() - start,
        bound_at_root=tables.base + tables.root_opt_rest(),
        status="optimal",
        trace=tuple(trace),
    )


def compare_models(
    inst: Instance,
    budget: Budget | None = None,
    include_diagonal: bool = False,
) -> ModelComparison:
    """Solve both formulations and report the gap between their optima.

    The relative gap is 100 * (obj_CD - obj_RCD) / obj_CD (zero when the
    CROSS-DOCK optimum is zero). The R-CROSS-DOCK winner is re-checked under
    CROSS-DOCK, flagging the eliminated-solutions phenomenon.
    """
    cd = branch_and_bound(inst, Formulation.CROSS_DOCK, budget, include_diagonal)
    rcd = branch_and_bound(inst, Formulation.R_CROSS_DOCK, budget, include_diagonal)
    gap = cd.objective.total - rcd.objective.total
    rel = 100.0 * gap / cd.objective.total if abs(cd.objective.total) > EPS else 0.0
    rcd_under_cd = check_solution(
        inst, rcd.best, Formulation.CROSS_DOCK, include_diagonal
    )
    return ModelComparison(
        cross_dock=cd,
        r_cross_dock=rcd,
        absolute_gap=gap,
        relative_gap_percent=rel,
        rcd_best_under_cd=rcd_under_cd,
    )
