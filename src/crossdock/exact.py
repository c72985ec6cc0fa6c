"""Exact solvers: branch and bound over dock assignments and a brute-force oracle.

Branching decides the heaviest trucks first, by the penalties each shares with
the others (ties by arrival, then index): their pairs move the bound most, so
early levels prune more (on the fixture's R-CROSS-DOCK tree, five times fewer
nodes than arrival order). Docks go ascending with "unassigned" last. Nodes
are pruned by an admissible bound: the all-penalties constant, plus the exact
net contribution of every fully decided truck pair, plus an optimistic
(capacity-ignoring) contribution for every undecided pair. A node carries its
bound as one running number. Every undecided truck carries an accumulator of
its unary term plus its exact pair sum with the docked decided trucks at each
dock, kept in one flat list per level with the truck branched on next in the
last block. A child's bound moves by one or two entries; a docked child adds
one precomputed flat pair row to the list in a single pass, O(m) work per
undecided truck, and an unassigned child shares its parent's list.
``_Tables`` derives from the compiled rules
(:func:`crossdock.formulations.compile_rules`) one entry per decision the
search makes: one number per pair of docked trucks, what the pair adds in both
directions, infinite where the two may not both be docked that way
(CROSS-DOCK: a forced transfer fails; R-CROSS-DOCK: a shared dock with
overlapping windows), and one per truck for its strict-literal self-flow at
its dock (a unary term, or a constant in the base under CROSS-DOCK). A clash
therefore makes a child's bound infinite, and an assignment's table value
(``_Tables.fast_value``) too: every solver's clash test asks whether that
value is finite. Each truck pair is built once, in one table read from either
truck's side, and one helper, ``_net``, values a transfer in one direction and
holds the tables' ship rule: a transfer that is not forced ships iff the rules
allow it and it gains more than EPS. The search reads these tables and never
branches on the model or the diagonal mode. Leaves are priced from the tables
too, by one route, ``_Tables.leaf_value``: the table value, plus under a
finite capacity the gain that the buffer forces the assignment to give up,
chosen by the selection kernel of the subproblem module
(:func:`crossdock.subproblem.select_items`). A caller with a target only has
to learn whether the assignment beats it, so a table value that already
misses the target ends the pricing, and otherwise the kernel gets a floor on
the gain it must keep: a per-event fractional bound or a selection search
that starts at the floor drops an assignment that cannot beat it. Branch and
bound passes its incumbent, VNS its running best; with no target the value
is priced in full. Each distinct buffer problem is selected once per search
(``_Tables._select`` keeps a memo), always exactly; a search's time budget
reaches into the kernel as a deadline, so a runaway selection ends the
search rather than outlasting its budget. The returned solution is built
from the same transfer decision (``_Tables.build_solution``), so the value
the search compares and the solution it returns come from one route; one
function, ``_result``, prices it with ``objective_value`` for every solver.

The brute-force oracle enumerates every assignment, builds its transfers
through the subproblem module (``_oracle_solution``) and prices them with
``objective_value``. It shares with the tables the clash test (a finite
table value), the strict-literal CROSS-DOCK items
(:func:`crossdock.subproblem.diagonal_candidates_crossdock`) and the
selection kernel, but derives the items, forced loads and values on its own
route, so the two solvers cross-validate each other; the kernel has its own
plain-enumeration twin in the tests. Every solver validates its instance
first and reads its clock before it builds the tables, so a time limit and
the reported wall time include the build.
"""

from __future__ import annotations

import itertools
import math
import operator
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
from .model import EPS, Instance, Solution, total_penalty_constant, validate_instance
from .model import _check_seconds, _integer

BRUTE_FORCE_LIMIT = 10**6

_UNDOCKED = -1  # internal 0-based marker

#: Entries a search's selection memo holds before it is cleared: above the
#: 11,300 buffer problems of the fixture's R-CROSS-DOCK search at capacity
#: 1000, about 1.2 kB each at n = 9-10, so at most about 20 MB.
_MEMO_LIMIT = 1 << 14


class InstanceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    """Limits of one search, None for none: the nodes processed and the
    seconds of wall time."""

    max_nodes: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None:
            _integer("max_nodes", self.max_nodes, 0)
        if self.time_limit is not None:
            _check_seconds("time_limit", self.time_limit)


@dataclass(frozen=True)
class OptimizeResult:
    best: Solution
    objective: ObjectiveBreakdown
    nodes_explored: int
    wall_time: float
    bound_at_root: float
    status: str = "optimal"
    trace: tuple[float, ...] = ()
    rng_algorithm: str | None = None

    @property
    def proven_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class ModelComparison:
    cross_dock: OptimizeResult
    r_cross_dock: OptimizeResult
    absolute_gap: float
    relative_gap_percent: float
    rcd_best_under_cd: ViolationReport


def verdict_line(feasible: bool) -> str:
    """The note's verdict: is the R-CROSS-DOCK optimum feasible under CROSS-DOCK?"""
    verdict = "FEASIBLE" if feasible else "INFEASIBLE"
    return f"r-crossdock optimum under crossdock: {verdict}"


def _net(delta: float, allowed: bool) -> float:
    """What a transfer that is not forced adds to the objective, given its net
    delta c_kl t_kl - p_ij f_ij and whether the rules allow it: the delta if
    it ships, which is iff allowed and it gains more than EPS, else 0.0."""
    return delta if allowed and delta < -EPS else 0.0


class _Tables:
    """Branch-and-bound data derived from the compiled rules, 0-based throughout."""

    def __init__(self, inst: Instance, form: Formulation, include_diagonal: bool):
        n, m = inst.n, inst.m
        rules = compile_rules(inst, form)
        self.inst, self.form, self.rules = inst, form, rules
        self.diag = include_diagonal
        self.cd = form is Formulation.CROSS_DOCK
        self.n, self.m = n, m
        ct, pf, allowed, overlap = rules.ct, rules.pf, rules.allowed, rules.overlap

        # weight[i]: the penalties truck i shares with the others; heaviest first
        self.weight = [sum(pf[i][j] + pf[j][i] for j in range(n) if j != i) for i in range(n)]
        self.order = sorted(range(n), key=lambda i: (-self.weight[i], inst.arrival[i], i))

        # pair[i][j][k][l]: what the transfers i -> j and j -> i add when i@k
        # and j@l (CROSS-DOCK forces both, R-CROSS-DOCK ships each by _net),
        # summed in that order; infinite where the two may not both be docked
        # that way. pair_opt[i][j]: each direction's least value where they
        # may, summed (0 = not both docked). Built once per truck pair and
        # written from both sides: pair[j][i][l][k] is pair[i][j][k][l]
        cd, docks = self.cd, range(m)
        pair = self.pair = [[None] * n for _ in range(n)]
        pair_opt = self.pair_opt = [[0.0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            ij = [[math.inf] * m for _ in docks]
            ji = [[math.inf] * m for _ in docks]
            opt_ij = opt_ji = 0.0
            allowed_ij, allowed_ji, apart = allowed[i][j], allowed[j][i], not overlap[i][j]
            pf_ij, pf_ji = pf[i][j], pf[j][i]
            for k in docks:
                for l in docks:
                    if allowed_ij[k][l] and allowed_ji[l][k] if cd else k != l or apart:
                        to_j, to_i = ct[k][l] - pf_ij, ct[l][k] - pf_ji
                        if not cd:
                            to_j = _net(to_j, allowed_ij[k][l])
                            to_i = _net(to_i, allowed_ji[l][k])
                        opt_ij, opt_ji = min(opt_ij, to_j), min(opt_ji, to_i)
                        ij[k][l] = ji[l][k] = to_j + to_i
            pair[i][j], pair[j][i] = ij, ji
            pair_opt[i][j] = pair_opt[j][i] = opt_ij + opt_ji

        # strict-literal self-transfers, allowed only in that mode: free in
        # CROSS-DOCK, so a constant in the base; R-CROSS-DOCK ships truck i's
        # self-flow through its own dock k, a unary term unary[i][k] with
        # optimistic value unary_opt[i] (CROSS-DOCK's become free_items,
        # (i, i, k, l, gain) at the cheapest dock pair (k, l) for each
        # self-transfer that ships, which the selection picks from; the base
        # ships them all)
        free = []
        if include_diagonal and cd:
            free = subproblem.diagonal_candidates_crossdock(inst)
        self.free_items = [
            (i - 1, i - 1, k - 1, l - 1, gain) for i, _, k, l, gain in free if gain > EPS
        ]
        strict = include_diagonal and not cd
        self.unary = [[_net(ct[k][k] - pf[i][i], strict) for k in docks] for i in range(n)]
        self.unary_opt = [min(row) for row in self.unary]
        self.base = total_penalty_constant(inst, include_diagonal) - sum(
            item[4] for item in self.free_items
        )
        self._no_load = (0.0,) * len(rules.events)
        self._memo = {}

    def root_opt_rest(self) -> float:
        total = sum(
            self.pair_opt[i][j] for i in range(self.n) for j in range(i + 1, self.n)
        )
        return total + sum(self.unary_opt)

    def to_public(self, y0) -> tuple[int, ...]:
        return tuple(0 if k == _UNDOCKED else k + 1 for k in y0)

    def fast_value(self, y0) -> float:
        """Exact objective of an assignment when capacity cannot bind;
        ``math.inf`` at the first two docked trucks that cannot coexist, the
        one clash test of every solver."""
        docked = [(i, y0[i]) for i in range(self.n) if y0[i] != _UNDOCKED]
        value = self.base
        for idx, (i, ki) in enumerate(docked):
            for (j, kj) in docked[idx + 1 :]:
                entry = self.pair[i][j][ki][kj]
                if entry == math.inf:
                    return entry
                value += entry
        for (i, ki) in docked:
            value += self.unary[i][ki]
        return value

    def _choice(self, y0):
        """(forced, items, base) of an assignment that has a finite table
        value, or None when the forced load overflows the buffer.

        ``forced`` lists the transfers that docking forces (CROSS-DOCK: every
        docked pair; R-CROSS-DOCK: none) and ``items`` the choosable transfers
        that ship (CROSS-DOCK: the strict-literal self-flows, at the cheapest
        dock pair; R-CROSS-DOCK: every docked transfer whose :func:`_net`, or
        ``unary`` entry on the diagonal, is negative, gaining minus that), as
        0-based (i, j, k, l) and (i, j, k, l, gain) tuples in (i, j) order;
        ``base`` is the forced load at each event.
        """
        rules = self.rules
        docked = [(i, y0[i]) for i in range(self.n) if y0[i] != _UNDOCKED]
        if self.cd:
            forced = [(i, j, ki, kj) for i, ki in docked for j, kj in docked if i != j]
            base = rules.load((i + 1, j + 1) for i, j, _, _ in forced)
            if any(occ > rules.limit for occ in base):
                return None
            return forced, self.free_items, base
        ct, pf, allowed, unary = rules.ct, rules.pf, rules.allowed, self.unary
        items = []
        for i, ki in docked:
            for j, kj in docked:
                if i == j:
                    value = unary[i][ki]
                else:
                    value = _net(ct[ki][kj] - pf[i][j], allowed[i][j][ki][kj])
                if value < 0:
                    items.append((i, j, ki, kj, -value))
        return [], items, self._no_load

    def _select(self, items, base, floor=None, deadline=None):
        """:func:`subproblem.select_items` over ``items`` above ``base``, run
        once per buffer problem: a memo keyed by the items' (i, j, gain) and
        ``base`` (with the rules, they fix the holds and limit) is cleared
        at ``_MEMO_LIMIT`` entries. A stored result answers an unfloored call
        as it is, a floored one with itself if it keeps more than floor + EPS,
        else None. A None stored at floor f answers None for any floor >= f; a
        lower floor or no floor selects again. A selection stopped by
        ``deadline`` raises and stores nothing.
        """
        key = (tuple([(i, j, gain) for i, j, _, _, gain in items]), tuple(base))
        memo = self._memo
        known = memo.get(key)
        if known is not None:
            if isinstance(known, float):  # None at floor ``known``
                if floor is not None and floor >= known:
                    return None
            elif floor is None:
                return known
            else:
                return known if known[1] > floor + EPS else None
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        rules = self.rules
        selection = subproblem.select_items(
            [item[4] for item in items],
            [rules.hold[i][j] for i, j, _, _, _ in items],
            base,
            rules.limit,
            floor=floor,
            deadline=deadline,
        )
        memo[key] = float(floor) if selection is None else selection
        return selection

    def build_solution(self, y0):
        """The solution of an assignment that has a finite table value,
        built from the decision that :meth:`leaf_value` prices: the forced
        transfers and the items that :meth:`_select` ships; None when the
        forced load overflows the buffer."""
        choice = self._choice(y0)
        if choice is None:
            return None
        forced, items, base = choice
        picked, _ = self._select(items, base)
        shipped = forced + [items[x][:4] for x in picked]
        transfers = tuple((i + 1, j + 1, k + 1, l + 1) for i, j, k, l in shipped)
        return Solution(dock=self.to_public(y0), transfers=transfers)

    def leaf_value(self, y0, target=math.inf, deadline=None):
        """The value of an assignment that has a finite table value, if it
        beats ``target`` by more than EPS; None when it does not, when two
        docked trucks clash (an infinite table value) or when the CROSS-DOCK
        forced load overflows the buffer. The default target asks for the
        full value.

        The value comes from the tables alone: :meth:`fast_value`, which
        ships every transfer that :func:`_net` ships, plus, under a finite
        ``limit``, the gain of the items that :meth:`_select` leaves out. The
        table value is read first, and an assignment whose table value does
        not beat ``target`` - EPS is dropped before the buffer is looked at,
        since the buffer only adds to it. Otherwise a finite ``target`` gives
        the selection a floor on the gain it keeps: the kept gain must exceed
        fast_value + sum(gains) - target for the value to beat ``target`` -
        EPS, and the floor sits EPS below that, so rounding never cuts an
        assignment that beats it. Branch and bound calls it with the
        incumbent, VNS with the best neighbour value so far. A selection that
        runs past ``deadline`` raises ``subproblem._OutOfBudget``.
        """
        value = self.fast_value(y0)
        if value >= target - EPS:
            return None
        if self.rules.limit == math.inf:
            return value
        choice = self._choice(y0)
        if choice is None:
            return None
        _, items, base = choice
        total = sum(item[4] for item in items)
        floor = None if target == math.inf else value + total - target - EPS
        selection = self._select(items, base, floor, deadline)
        if selection is None:
            return None
        value += total - selection[1]
        return value if value < target - EPS else None


def _oracle_solution(tables: _Tables, y0) -> Solution | None:
    """The subproblem module's transfer set for an assignment that has a
    finite table value: the oracle's route, which never reads the tables'
    pair, unary or choice data. None when the CROSS-DOCK forced load
    overflows the buffer."""
    inst, diag = tables.inst, tables.diag
    y1 = tables.to_public(y0)
    if not tables.cd:
        return subproblem.optimal_transfers_rcrossdock(inst, y1, diag).solution
    induced = subproblem.induced_transfers_crossdock(inst, y1)
    if isinstance(induced, subproblem.InfeasibilityWitness):
        return None
    if not diag:
        return induced
    items = subproblem.diagonal_candidates_crossdock(inst)
    selected, _ = subproblem.select_transfers(inst, items, induced.transfers)
    return Solution(dock=y1, transfers=induced.transfers + selected)


def _result(tables, solution, start, nodes, status, trace, rng_algorithm=None):
    """Every solver's OptimizeResult: ``solution`` priced by objective_value,
    the tables' root bound and the wall time since ``start``."""
    return OptimizeResult(
        best=solution,
        objective=objective_value(tables.inst, solution, tables.form, tables.diag),
        nodes_explored=nodes,
        wall_time=time.perf_counter() - start,
        bound_at_root=tables.base + tables.root_opt_rest(),
        status=status,
        trace=tuple(trace),
        rng_algorithm=rng_algorithm,
    )


def branch_and_bound(
    inst: Instance,
    form: Formulation,
    budget: Budget | None = None,
    include_diagonal: bool = False,
    on_node=None,
) -> OptimizeResult:
    """Depth-first branch and bound over dock assignments.

    Trucks are decided in ``_Tables.order``, heaviest ``weight`` first, so a
    renumbering that keeps equal-arrival trucks in order explores one tree.

    A node carries one number, its bound less ``base``. Each level keeps m + 1
    accumulators per undecided truck: per dock, its ``unary`` entry plus its
    exact ``pair`` sum with the docked decided trucks, and its ``unary_opt``
    plus the ``pair_opt`` sum over the same pairs. They sit
    in one flat list, the latest-branched truck's block first, so the block of
    the truck decided at this level is the last one. A child's bound is its
    parent's less that block's last entry, plus the entry of its dock or, if
    unassigned, less the level's ``pair_opt`` sum over the later trucks. A
    docked child adds the truck's precomputed flat pair row to the list,
    which covers every block but the last: O(m) per undecided truck, whatever
    the depth. An unassigned child shares its parent's list: lists are never
    written once built, and a shared list's extra trailing blocks are never
    read. On non-integer data the running bound may differ from the tables
    summed from scratch in the last bits.

    Leaf pruning: a leaf's bound is its table value, and under a finite
    ``Rules.limit`` :meth:`_Tables.leaf_value` prices the buffer only as far
    as the leaf can still beat the incumbent by more than EPS. A leaf that
    cannot is dropped without its full value, so the incumbents, values and
    trace are those that pricing every leaf in full gives.

    ``nodes_explored`` counts the nodes processed: ``Budget(max_nodes=K)``
    processes at most K, and a time limit is checked before every 256th
    further node and, as a deadline, inside every leaf's selection; either
    check raises ``subproblem._OutOfBudget`` out of the whole recursion.

    Deterministic: identical inputs give identical node counts and incumbents.
    The status is "optimal" (so ``proven_optimal``) iff the search completed
    within budget. With an exhausted budget the best incumbent found so far
    is still returned (status "budget_exhausted").
    """
    start = time.perf_counter()
    validate_instance(inst)
    budget = budget or Budget()
    tables = _Tables(inst, form, include_diagonal)
    n, m = tables.n, tables.m
    max_nodes = math.inf if budget.max_nodes is None else budget.max_nodes
    deadline = None if budget.time_limit is None else start + budget.time_limit

    y0 = [_UNDOCKED] * n
    # the empty assignment is always feasible: a guaranteed incumbent
    best_value = tables.leaf_value(y0)
    best_y = tuple(y0)
    trace = [best_value]
    nodes = 0

    base = tables.base
    order, pair, pair_opt = tables.order, tables.pair, tables.pair_opt
    # per level idx, deciding u = order[idx]: u, the offset of its
    # accumulator block, its push rows (per dock k, what docking u at k adds
    # to the later trucks' blocks, in the same latest-first layout) and its
    # skip, the optimistic pair terms with the later trucks that leaving it
    # unassigned removes
    levels = []
    for idx, u in enumerate(order):
        later = order[idx + 1 :]
        push = [
            [x for v in reversed(later) for x in pair[u][v][k] + [pair_opt[u][v]]]
            for k in range(m)
        ]
        skip = sum(pair_opt[u][v] for v in later)
        levels.append((u, (m + 1) * (n - 1 - idx), push, skip))
    cut = best_value - EPS - base  # a child is entered iff its bound < cut
    # the node count at which the budget or, every 256 nodes, the clock is
    # next read; with no deadline it is the budget, and the clock is never read
    check_at = max_nodes if deadline is None else min(max_nodes, 256)

    def recurse(idx: int, bound: float, accs):
        nonlocal best_value, best_y, cut, nodes, check_at
        if nodes >= check_at:
            if nodes >= max_nodes or time.perf_counter() > deadline:
                raise subproblem._OutOfBudget
            check_at = min(max_nodes, nodes + 256)
        nodes += 1
        if on_node is not None:
            decided = tuple(
                (u + 1, 0 if y0[u] == _UNDOCKED else y0[u] + 1) for u in order[:idx]
            )
            on_node(decided, base + bound)
        if idx == n:
            value = tables.leaf_value(y0, best_value, deadline)
            if value is not None:
                best_value = value
                best_y = tuple(y0)
                trace.append(value)
                cut = value - EPS - base
            return
        u, at, push_u, skip = levels[idx]
        rest = bound - accs[at + m]
        for k, push_k in enumerate(push_u):
            # a clash with a decided truck left accs[at + k] infinite: never
            # entered
            child = rest + accs[at + k]
            if child < cut:
                y0[u] = k
                # map stops at the shorter push row, dropping u's own block
                recurse(idx + 1, child, list(map(operator.add, accs, push_k)))
                y0[u] = _UNDOCKED
        # leave truck u unassigned: its pairs contribute exactly zero, and no
        # accumulator list is written once built, so the child shares this one
        child = rest - skip
        if child < cut:
            recurse(idx + 1, child, accs)

    # each truck's block starts at its unary row and optimum
    accs = [x for v in reversed(order) for x in tables.unary[v] + [tables.unary_opt[v]]]
    status = "optimal"
    try:
        recurse(0, tables.root_opt_rest(), accs)
    except subproblem._OutOfBudget:
        status = "budget_exhausted"

    solution = tables.build_solution(list(best_y))
    return _result(tables, solution, start, nodes, status, trace)


def brute_force(
    inst: Instance, form: Formulation, include_diagonal: bool = False
) -> OptimizeResult:
    """Enumerate every dock assignment; each one's transfers come from the
    subproblem module (``_oracle_solution``), its value from
    ``objective_value``."""
    start = time.perf_counter()
    validate_instance(inst)
    n, m = inst.n, inst.m
    total_assignments = (m + 1) ** n
    if total_assignments > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"instance_too_large: (m+1)^n = {total_assignments} exceeds "
            f"{BRUTE_FORCE_LIMIT}"
        )
    tables = _Tables(inst, form, include_diagonal)
    options = list(range(m)) + [_UNDOCKED]

    best = None
    trace = []
    nodes = 0
    for assignment in itertools.product(options, repeat=n):
        nodes += 1
        if tables.fast_value(assignment) == math.inf:
            continue
        solution = _oracle_solution(tables, assignment)
        if solution is None:
            continue
        total = objective_value(inst, solution, form, include_diagonal).total
        if best is None or total < trace[-1] - EPS:
            best = solution
            trace.append(total)
    return _result(tables, best, start, nodes, "optimal", trace)


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
