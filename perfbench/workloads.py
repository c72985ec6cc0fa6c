"""The benchmark's workloads: their job lists, their inputs and the checks on
every output.

Inputs come from the workload seed. Exact and heuristic jobs run on a truck
relabeling of a fixed base instance: the seed draws the permutation and
trucks with equal arrival times keep their relative order. Branch and bound
branches in arrival order, so it explores the same tree and reaches the same
optimum for every seed while the matrices it reads differ; the references in
``references.json`` therefore hold for every seed. Audit jobs run on
instances generated from the seed.

Library calls that a job times go through module attributes (``exact.
branch_and_bound``, not a name bound at import), so that a traced pass sees
the wrapped functions. The checks run after the pass, with tracing off, and
use the names imported here, which are always the originals.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from crossdock import (
    diagnosis,
    exact,
    formulations,
    instance_io,
    lp_export,
    reproduce,
    subproblem,
    vns,
)
from crossdock.formulations import (
    ConstraintFamily,
    Formulation,
    check_solution,
    objective_value,
)
from crossdock.model import EPS, UNASSIGNED, Instance, Solution

CD = Formulation.CROSS_DOCK
RCD = Formulation.R_CROSS_DOCK
FORMS = (CD, RCD)

REFERENCES_PATH = Path(__file__).with_name("references.json")

#: B&B node budget of the n=16 jobs in ``unbounded``: fixed work, a
#: deterministic incumbent, and the known timeout (ROADMAP item 3) in view.
NODE_BUDGET_N16 = 150_000
#: VNS iterations: the CLI default on the fixture, fewer where every
#: evaluation goes through transfer selection.
VNS_ITERATIONS_UNBOUNDED = 50
VNS_ITERATIONS_CAPACITY = 5
VNS_RNG_SEED = 0
#: At least this share of the exact ``capacity`` jobs must have an optimum
#: that differs from the same instance with unbounded capacity.
MIN_BINDING_SHARE = 0.5

# ---------------------------------------------------------------- instances

#: Base instances by name: ("fixture", capacity) or ("gen", seed, n, m, ratio).
BASES = {
    "fixture": ("fixture", None),
    "fixture-c2000": ("fixture", 2000.0),
    "gen-s0-n16-m5": ("gen", 0, 16, 5, None),
    "gen-s1-n10-m3-r0.05": ("gen", 1, 10, 3, 0.05),
    "gen-s2-n10-m3-r0.05": ("gen", 2, 10, 3, 0.05),
    "gen-s3-n10-m3-r0.05": ("gen", 3, 10, 3, 0.05),
    "gen-s0-n10-m4-r0.05": ("gen", 0, 10, 4, 0.05),
}


def unbounded_twin(name: str) -> tuple:
    """The spec of a base instance with its capacity removed."""
    spec = BASES[name]
    return ("fixture", None) if spec[0] == "fixture" else (*spec[:4], None)


def spec_name(spec: tuple) -> str:
    if spec[0] == "fixture":
        return "fixture" if spec[1] is None else f"fixture-c{spec[1]:g}"
    _, seed, n, m, ratio = spec
    return f"gen-s{seed}-n{n}-m{m}" + ("" if ratio is None else f"-r{ratio:g}")


def build_spec(spec: tuple) -> Instance:
    if spec[0] == "fixture":
        inst = instance_io.load_fixture_instance()
        return inst if spec[1] is None else inst.with_capacity(spec[1])
    _, seed, n, m, ratio = spec
    return instance_io.generate(seed, n, m, capacity_ratio=ratio)


def relabel(inst: Instance, rng: np.random.Generator) -> Instance:
    """The instance with its trucks renumbered by a random permutation.

    Trucks with equal arrival keep their relative order, so the arrival-order
    branching of branch and bound is unchanged.
    """
    n = inst.n
    label = [int(x) for x in rng.permutation(n)]  # old truck -> new truck
    ties: dict[float, list[int]] = {}
    for i in range(n):
        ties.setdefault(inst.arrival[i], []).append(i)
    for members in ties.values():
        for i, new in zip(members, sorted(label[i] for i in members)):
            label[i] = new
    old = [0] * n
    for i, new in enumerate(label):
        old[new] = i

    def square(rows):
        return [[rows[old[a]][old[b]] for b in range(n)] for a in range(n)]

    return Instance(
        n=n,
        m=inst.m,
        arrival=[inst.arrival[i] for i in old],
        departure=[inst.departure[i] for i in old],
        transfer_time=inst.transfer_time,
        transfer_cost=inst.transfer_cost,
        flow=square(inst.flow),
        penalty=square(inst.penalty),
        capacity=inst.capacity,
        name=inst.name,
        seed=inst.seed,
    )


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text())


# --------------------------------------------------------------------- jobs


@dataclass
class Job:
    """One timed library call, the check of its output and its signature.

    ``kind`` names the end-to-end metric the call's time is summed into.
    ``signature`` returns the counts and objectives that must repeat exactly
    across passes, traced or not.
    """

    kind: str
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    signature: Callable[[object], tuple]
    reference: float | None = None  # exact and heuristic jobs: the optimum
    budgeted: bool = False  # exact jobs stopped by a node budget


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def _solution_problems(inst, result, form, diag=False) -> list[str]:
    problems = []
    report = check_solution(inst, result.best, form, diag)
    if not report.feasible:
        problems.append(f"check_solution rejects it: {report.constraint_ids()[:3]}")
    value = objective_value(inst, result.best, form, diag).total
    if value != result.objective.total:
        problems.append(
            f"objective_value {value!r} differs from the reported "
            f"{result.objective.total!r}"
        )
    return problems


def _result_signature(result) -> tuple:
    return (
        result.objective.total,
        result.status,
        result.proven_optimal,
        result.nodes_explored,
        result.bound_at_root,
        result.trace,
    )


def exact_job(inst, base, form, ref: dict, max_nodes=None) -> Job:
    optimum = ref["optimum"]
    expect_proven = ref["expect_proven"]
    budget = exact.Budget(max_nodes=max_nodes)

    def check(result) -> list[str]:
        problems = _solution_problems(inst, result, form)
        total = result.objective.total
        if expect_proven and not result.proven_optimal:
            problems.append(f"expected a proven optimum, got status {result.status}")
        if optimum is not None:
            if (expect_proven or result.proven_optimal) and total != optimum:
                problems.append(f"objective {total!r} differs from the reference {optimum!r}")
            if total < optimum - EPS:
                problems.append(f"objective {total!r} beats the proven optimum {optimum!r}")
        return problems

    return Job(
        kind="exact",
        name=f"bnb {base}/{form.value}",
        call=lambda: exact.branch_and_bound(inst, form, budget),
        check=check,
        signature=_result_signature,
        reference=optimum,
        budgeted=max_nodes is not None,
    )


def heuristic_job(inst, base, form, ref: dict, iterations: int) -> Job:
    optimum = ref["optimum"]
    cfg = vns.VnsConfig(iter_max=iterations, rng_seed=VNS_RNG_SEED)

    def check(result) -> list[str]:
        problems = _solution_problems(inst, result, form)
        if optimum is not None and result.objective.total < optimum - EPS:
            problems.append(
                f"objective {result.objective.total!r} beats the proven optimum {optimum!r}"
            )
        return problems

    return Job(
        kind="heuristic",
        name=f"vns {base}/{form.value}",
        call=lambda: vns.vns_solve(inst, form, cfg),
        check=check,
        signature=_result_signature,
        reference=optimum,
    )


def note_job(ref: dict) -> Job:
    """The reproduce-note pipeline, driven as the CLI drives it."""

    def call():
        rep = reproduce.reproduce_note(capacity="fixture", time_limit=600.0)
        return rep, reproduce.render_report(rep)

    def check(output) -> list[str]:
        rep, text = output
        problems = []
        if not isinstance(text, str) or "== instance ==" not in text:
            problems.append("render_report returned no report")
        for figures, mode in zip(rep.modes, ("default", "strict")):
            want = ref[mode]
            for label, result, form in (
                ("crossdock", figures.cross_dock, CD),
                ("r-crossdock", figures.r_cross_dock, RCD),
            ):
                problems += [
                    f"{mode} {label}: {p}"
                    for p in _solution_problems(
                        rep.instance, result, form, figures.include_diagonal
                    )
                ]
                if not result.proven_optimal:
                    problems.append(f"{mode} {label}: not proven ({result.status})")
                if result.objective.total != want[label]:
                    problems.append(
                        f"{mode} {label}: optimum {result.objective.total!r}, "
                        f"reference {want[label]!r}"
                    )
            for label, value in (
                ("s_star", figures.s_star_objective.total),
                ("s_prime_star", figures.s_prime_objective.total),
            ):
                if value != want[label]:
                    problems.append(f"{mode} {label} objective {value!r}, reference {want[label]!r}")
            if figures.rcd_best_under_cd_feasible:
                problems.append(f"{mode}: the r-crossdock optimum passes under crossdock")
        for key, feasible in ref["checks"].items():
            label, form = key.split("/")
            if rep.checks[(label, form)].feasible != feasible:
                problems.append(f"check of {key} is not {'feasible' if feasible else 'infeasible'}")
        conflict = [str(c) for c in rep.conflict.constraints] if rep.conflict else None
        if conflict != ref["conflict"] or not rep.conflict.minimal:
            problems.append(f"conflict {conflict}, reference {ref['conflict']}")
        return problems

    def signature(output) -> tuple:
        rep, _ = output
        modes = tuple(
            (_result_signature(f.cross_dock), _result_signature(f.r_cross_dock))
            for f in rep.modes
        )
        conflict = rep.conflict.constraints if rep.conflict else None
        return modes, conflict

    return Job("note", "reproduce-note fixture", call, check, signature)


# ------------------------------------------------------------------- audit

#: Generated audit instances, (seed, n, m, capacity_ratio); these and the
#: fixture, relabeled by the workload seed, each give two LP exports. Fixed
#: bases keep the LP sizes, and so the export work, the same for every seed.
AUDIT_SPECS = (
    ("gen", 0, 8, 3, None),
    ("gen", 1, 10, 4, 0.05),
    ("gen", 2, 12, 4, None),
    ("gen", 3, 16, 5, 0.05),
    ("gen", 4, 16, 5, None),
)
#: Random assignments per audit instance.
AUDIT_ASSIGNMENTS = 30


def _random_assignment(inst: Instance, rng) -> tuple[int, ...]:
    """Half the trucks, drawn at random, each at a random dock: a fixed
    docked count keeps the cost of a check or conflict search alike
    across seeds."""
    y = [UNASSIGNED] * inst.n
    for i in rng.choice(inst.n, size=inst.n // 2, replace=False):
        y[int(i)] = int(rng.integers(1, inst.m + 1))
    return tuple(y)


def _expected_row_count(inst: Instance, form: Formulation) -> int:
    n, m = inst.n, inst.m
    pairs = n * (n - 1)
    rows = n + 2 * pairs * m * m + pairs * m + (2 * n if pairs else 0)
    return rows + (pairs * m * m if form is CD else n * (n - 1) // 2 * m)


def export_job(inst: Instance, form: Formulation, label: str) -> Job:
    n, m = inst.n, inst.m
    variables = n * m + n * (n - 1) * m * m
    constant = sum(
        inst.penalty[i][j] * inst.flow[i][j] for i in range(n) for j in range(n) if i != j
    )
    rows = _expected_row_count(inst, form)
    row_label = re.compile(r"^ [a-z]+(_\d+)+:", re.M)

    def check(doc) -> list[str]:
        problems = []
        if doc.variable_count != variables:
            problems.append(f"{doc.variable_count} variables, expected {variables}")
        if doc.constraint_count != rows:
            problems.append(f"{doc.constraint_count} rows reported, expected {rows}")
        body = doc.text.split("\nSubject To\n", 1)[-1].split("\nBounds\n", 1)[0]
        if len(row_label.findall(body)) != rows:
            problems.append(f"the text holds {len(row_label.findall(body))} rows, expected {rows}")
        if abs(doc.objective_constant - constant) > EPS:
            problems.append(f"objective constant {doc.objective_constant!r}, expected {constant!r}")
        if not doc.text.endswith("\nEnd\n"):
            problems.append("the text does not end with End")
        return problems

    def signature(doc) -> tuple:
        return len(doc.text), hashlib.sha256(doc.text.encode()).hexdigest()

    return Job(
        kind="export",
        name=f"emit_lp {label}/{form.value}",
        call=lambda: lp_export.emit_lp(inst, form),
        check=check,
        signature=signature,
    )


def _forced_solution(y) -> Solution:
    docked = [(i + 1, k) for i, k in enumerate(y) if k != UNASSIGNED]
    return Solution(
        dock=y,
        transfers=tuple((i, j, k, l) for i, k in docked for j, l in docked if i != j),
    )


def _check_job(inst, y, form, sol, blocking, label) -> Job:
    """check_solution must accept ``sol`` iff ``blocking`` is None, and then
    name ``blocking`` among its violations."""

    def check(report) -> list[str]:
        if blocking is None:
            return [] if report.feasible else [f"rejects a feasible set: {report.constraint_ids()[:3]}"]
        if blocking not in report.constraint_ids():
            return [f"misses {blocking}; reports {report.constraint_ids()[:3]}"]
        return []

    return Job(
        kind="verify",
        name=f"check_solution {label}/{form.value} {y}",
        call=lambda: formulations.check_solution(inst, sol, form),
        check=check,
        signature=lambda report: tuple(str(c) for c in report.constraint_ids()),
    )


def _conflict_job(inst, y, violated: frozenset | None, label) -> Job:
    """find_conflict under CROSS-DOCK must find a conflict iff the induced
    transfer set failed; every member that is not a pair-forcing row must be
    violated by the forced transfer set, and the set must be minimal."""

    def check(conflict) -> list[str]:
        if violated is None:
            return [] if conflict is None else [f"conflict {conflict.constraints} on a feasible assignment"]
        if conflict is None:
            return ["no conflict on an assignment without an induced transfer set"]
        problems = [] if conflict.minimal else ["the conflict set is not minimal"]
        stray = [
            str(c)
            for c in conflict.constraints
            if c.family is not ConstraintFamily.PAIR_FORCING and c not in violated
        ]
        if stray:
            problems.append(f"members the forced set satisfies: {stray}")
        return problems

    return Job(
        kind="verify",
        name=f"find_conflict {label}/crossdock {y}",
        call=lambda: diagnosis.find_conflict(inst, y, CD),
        check=check,
        signature=lambda c: None if c is None else (tuple(map(str, c.constraints)), c.minimal),
    )


def audit_jobs(inst: Instance, label: str, rng) -> list[Job]:
    jobs = [export_job(inst, form, label) for form in FORMS]
    for _ in range(AUDIT_ASSIGNMENTS):
        y = _random_assignment(inst, rng)
        induced = subproblem.induced_transfers_crossdock(inst, y)
        if isinstance(induced, Solution):
            jobs.append(_check_job(inst, y, CD, induced, None, label))
            jobs.append(_conflict_job(inst, y, None, label))
        else:
            forced = _forced_solution(y)
            violated = frozenset(check_solution(inst, forced, CD).constraint_ids())
            jobs.append(_check_job(inst, y, CD, forced, induced.blocking, label))
            jobs.append(_conflict_job(inst, y, violated, label))
        try:
            selection = subproblem.optimal_transfers_rcrossdock(inst, y)
        except subproblem.DockConflictError as err:
            jobs.append(_check_job(inst, y, RCD, Solution(dock=y), err.constraint, label))
        else:
            jobs.append(_check_job(inst, y, RCD, selection.solution, None, label))
    return jobs


# --------------------------------------------------------------- workloads


def _ref(refs: dict, base: str, form: Formulation) -> dict:
    return refs["optima"][f"{base}/{form.value}"]


def check_capacity_binds(refs: dict, jobs: list[tuple[str, Formulation]]) -> None:
    """Raise unless enough exact ``capacity`` jobs have an optimum that the
    buffer capacity changes (ROADMAP: capacity_ratio >= 0.2 never binds)."""
    binding = [
        (base, form)
        for base, form in jobs
        if _ref(refs, base, form)["optimum"]
        != refs["optima"][f"{spec_name(unbounded_twin(base))}/{form.value}"]["optimum"]
    ]
    if len(binding) < MIN_BINDING_SHARE * len(jobs):
        raise RuntimeError(
            f"capacity binds in only {len(binding)} of {len(jobs)} exact capacity jobs"
        )


#: Exact and heuristic jobs of ``capacity``: (base, formulations with an
#: exact job, formulations with a heuristic job). The R-CROSS-DOCK optimum of
#: gen-s0-n10-m4-r0.05 is not proven within a minute, so it has no exact job.
CAPACITY_JOBS = (
    ("fixture-c2000", FORMS, FORMS),
    ("gen-s1-n10-m3-r0.05", FORMS, FORMS),
    ("gen-s2-n10-m3-r0.05", FORMS, FORMS),
    ("gen-s3-n10-m3-r0.05", FORMS, FORMS),
    ("gen-s0-n10-m4-r0.05", (CD,), FORMS),
)


def build(name: str, seed: int) -> Workload:
    """The job list of workload ``name`` for ``seed``: same seed, same inputs."""
    refs = load_references()
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    if name == "unbounded":
        jobs.append(note_job(refs["note"]))
        fixture = relabel(build_spec(BASES["fixture"]), rng)
        for form in FORMS:
            jobs.append(
                heuristic_job(fixture, "fixture", form, _ref(refs, "fixture", form), VNS_ITERATIONS_UNBOUNDED)
            )
        big = relabel(build_spec(BASES["gen-s0-n16-m5"]), rng)
        for form in FORMS:
            ref = _ref(refs, "gen-s0-n16-m5", form)
            jobs.append(exact_job(big, "gen-s0-n16-m5", form, ref, NODE_BUDGET_N16))
    elif name == "capacity":
        check_capacity_binds(
            refs, [(base, form) for base, forms, _ in CAPACITY_JOBS for form in forms]
        )
        for base, exact_forms, heuristic_forms in CAPACITY_JOBS:
            inst = relabel(build_spec(BASES[base]), rng)
            for form in exact_forms:
                jobs.append(exact_job(inst, base, form, _ref(refs, base, form)))
            for form in heuristic_forms:
                jobs.append(
                    heuristic_job(inst, base, form, _ref(refs, base, form), VNS_ITERATIONS_CAPACITY)
                )
    elif name == "audit":
        for spec in (BASES["fixture"], *AUDIT_SPECS):
            jobs += audit_jobs(relabel(build_spec(spec), rng), spec_name(spec), rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, jobs)


WORKLOADS = ("unbounded", "capacity", "audit")
