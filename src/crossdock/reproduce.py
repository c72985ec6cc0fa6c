"""End-to-end reproduction of the published 9-truck/6-dock counterexample.

Validates the bundled instance, checks both published solutions under both
formulations, diagnoses why the rectified optimum is rejected by the original
model, solves both models exactly, and juxtaposes every computed figure with
the published ones. Published values are never treated as ground truth: the
report always reads "published X / computed Y / delta Z".

The published objective figures (316951.0, 11, 45.45%) are mutually
inconsistent and the source never states the buffer capacity, so the pipeline
reports deltas in both the default mode (self-flows excluded) and the
strict-literal mode (self-flows included).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import diagnosis, exact
from .formulations import (
    Formulation,
    ObjectiveBreakdown,
    ViolationReport,
    check_solution,
    objective_value,
)
from .instance_io import load_fixture_instance, load_fixture_solution
from .model import (
    Instance,
    Solution,
    compute_xhat,
    format_number,
    instance_flags,
    validate_instance,
)

#: Objective values and gap printed in the source next to s* and s'*.
PUBLISHED_CROSS_DOCK_OBJECTIVE = 316951.0
PUBLISHED_R_CROSS_DOCK_OBJECTIVE = 11.0
PUBLISHED_RELATIVE_GAP_PERCENT = 45.45


@dataclass(frozen=True)
class ModeFigures:
    """Computed objective figures for one diagonal mode."""

    include_diagonal: bool
    s_star_objective: ObjectiveBreakdown
    s_prime_objective: ObjectiveBreakdown
    cross_dock: exact.OptimizeResult
    r_cross_dock: exact.OptimizeResult
    relative_gap_percent: float
    rcd_best_under_cd_feasible: bool


@dataclass(frozen=True)
class NoteReproduction:
    instance: Instance
    flags: tuple[str, ...]
    precedence_ones: tuple[tuple[int, int], ...]
    s_star: Solution
    s_prime: Solution
    checks: dict
    conflict: diagnosis.ConflictSet | None
    modes: tuple[ModeFigures, ...]
    wall_time: float


def reproduce_note(
    capacity: float | None | str = "fixture",
    time_limit: float | None = None,
) -> NoteReproduction:
    """Run the full pipeline; deterministic and fully offline.

    ``capacity`` defaults to the fixture's (unbounded, since the source never
    states one); pass a number or None to override.
    """
    start = time.perf_counter()
    inst = load_fixture_instance()
    if capacity != "fixture":
        inst = inst.with_capacity(capacity)
    validate_instance(inst)
    flags = tuple(instance_flags(inst))
    s_star = load_fixture_solution("s_star.json")
    s_prime = load_fixture_solution("s_prime_star.json")
    xhat = compute_xhat(inst)

    checks: dict[tuple[str, str], ViolationReport] = {}
    for key, sol in (("s_star", s_star), ("s_prime_star", s_prime)):
        for form in Formulation:
            checks[(key, form.value)] = check_solution(inst, sol, form)

    conflict = diagnosis.find_conflict(inst, s_prime.dock, Formulation.CROSS_DOCK)

    budget = exact.Budget(time_limit=time_limit)
    modes = []
    for include_diagonal in (False, True):
        comparison = exact.compare_models(inst, budget, include_diagonal)
        modes.append(
            ModeFigures(
                include_diagonal=include_diagonal,
                s_star_objective=objective_value(
                    inst, s_star, Formulation.CROSS_DOCK, include_diagonal
                ),
                s_prime_objective=objective_value(
                    inst, s_prime, Formulation.R_CROSS_DOCK, include_diagonal
                ),
                cross_dock=comparison.cross_dock,
                r_cross_dock=comparison.r_cross_dock,
                relative_gap_percent=comparison.relative_gap_percent,
                rcd_best_under_cd_feasible=comparison.rcd_best_under_cd.feasible,
            )
        )

    return NoteReproduction(
        instance=inst,
        flags=flags,
        precedence_ones=tuple(
            (i, j) for i in inst.trucks() for j in inst.trucks() if xhat[i - 1][j - 1]
        ),
        s_star=s_star,
        s_prime=s_prime,
        checks=checks,
        conflict=conflict,
        modes=tuple(modes),
        wall_time=time.perf_counter() - start,
    )


def _check_line(label: str, form: str, report: ViolationReport) -> str:
    if report.feasible:
        return f"{label} under {form}: FEASIBLE"
    shown = ", ".join(str(c) for c in report.constraint_ids()[:4])
    more = len(report.violations) - 4
    if more > 0:
        shown += f", ... ({more} more)"
    return f"{label} under {form}: INFEASIBLE ({len(report.violations)} violations: {shown})"


def render_report(rep: NoteReproduction) -> str:
    inst = rep.instance
    cap = "unbounded" if inst.capacity is None else format_number(inst.capacity)
    lines = [
        "== instance ==",
        f"name: {inst.name}  trucks: {inst.n}  docks: {inst.m}  capacity: {cap}",
        f"validation: OK  flags: {'; '.join(rep.flags) if rep.flags else 'none'}",
        "precedence ones (i departs before j arrives): "
        + " ".join(f"x_{i}{j}" for (i, j) in rep.precedence_ones),
        "== published solutions ==",
    ]
    for label, key in (("s*", "s_star"), ("s'*", "s_prime_star")):
        for form in Formulation:
            lines.append(_check_line(label, form.value, rep.checks[(key, form.value)]))
    lines.append("== conflict diagnosis: s'* assignment under crossdock ==")
    if rep.conflict is None:
        lines.append("consistent: the assignment admits a compatible transfer set")
    else:
        lines.append(rep.conflict.render())
    solved = lambda r: "(proven)" if r.proven_optimal else f"({r.status})"
    for figures in rep.modes:
        mode = (
            "strict-literal (self-flows included)"
            if figures.include_diagonal
            else "default (self-flows excluded)"
        )
        cd, rcd = figures.cross_dock, figures.r_cross_dock
        lines.append(f"== objectives, {mode} ==")
        for name, published, computed in (
            ("evaluated s* objective",
             PUBLISHED_CROSS_DOCK_OBJECTIVE, figures.s_star_objective.total),
            (f"solved crossdock optimum {solved(cd)}",
             PUBLISHED_CROSS_DOCK_OBJECTIVE, cd.objective.total),
            (f"solved r-crossdock optimum {solved(rcd)}",
             PUBLISHED_R_CROSS_DOCK_OBJECTIVE, rcd.objective.total),
            ("relative gap percent",
             PUBLISHED_RELATIVE_GAP_PERCENT, figures.relative_gap_percent),
        ):
            delta = computed - published
            lines.append(
                f"{name}: published {format_number(published)}, "
                f"computed {format_number(computed)}, "
                f"delta {'+' if delta >= 0 else ''}{format_number(delta)}"
            )
        lines.append(exact.verdict_line(figures.rcd_best_under_cd_feasible))
        if not figures.rcd_best_under_cd_feasible:
            lines.append(
                "  the rectified model reaches solutions the original model eliminates"
            )
    lines.append("== notes ==")
    lines.append(
        "published figures are reported as printed; they are mutually"
        " inconsistent and assume an unstated capacity, so deltas are expected"
    )
    lines.append(f"timing: {rep.wall_time:.2f}s")
    return "\n".join(lines)
