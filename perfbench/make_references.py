"""Establish the benchmark's reference optima by an independent route.

Usage (from the repository root)::

    python3 perfbench/make_references.py            # compare with references.json
    python3 perfbench/make_references.py --write    # rewrite references.json

Every optimum a workload checks against is computed without branch and
bound: by ``exact.brute_force`` where (m+1)^n <= 10^6, otherwise by HiGHS
(through ``scipy.optimize.milp``) on the text that ``lp_export.emit_lp``
writes, parsed back by the small interpreter below. Branch and bound is then
run on the same instance and must agree wherever it proves an optimum; its
status, objective and node count are stored as the seed-commit record.

The strict-literal (self-flows included) note figures have no independent
route: the LP export leaves self-flows out and brute force exceeds its limit
on the 9-truck fixture. They are stored as branch and bound computes them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossdock import exact, lp_export  # noqa: E402
from crossdock.reproduce import reproduce_note  # noqa: E402

import workloads as wl  # noqa: E402

HIGHS_TIME_LIMIT = 1800.0


def interpret_lp(text: str):
    """(constant, objective, rows, fixed, variables) of an emitted LP text."""

    def terms(tokens):
        coefs, sign, pending = {}, 1.0, None
        for tok in tokens:
            if tok in "+-":
                sign, pending = (1.0 if tok == "+" else -1.0), None
                continue
            try:
                pending = float(tok)
            except ValueError:
                coefs[tok] = coefs.get(tok, 0.0) + sign * (1.0 if pending is None else pending)
                sign, pending = 1.0, None
        return coefs

    sections, current = {"header": []}, "header"
    for line in text.splitlines():
        if line.strip() in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            current = line.strip()
            sections[current] = []
        else:
            sections[current].append(line)
    constant = next(
        float(line.split(":")[1]) for line in sections["header"] if "objective constant" in line
    )
    objective = terms(" ".join(sections["Minimize"]).replace("obj:", " ").split())
    rows, pending = [], []
    for line in sections["Subject To"] + ["end: 0 <= 0"]:
        if ":" in line:
            if pending:
                lhs, rhs = " ".join(pending).rsplit("<=", 1)
                rows.append((terms(lhs.split()), float(rhs)))
            pending = [line.split(":", 1)[1]]
        else:
            pending.append(line)
    fixed = {}
    for line in sections["Bounds"]:
        name, value = line.split("=")
        fixed[name.strip()] = float(value)
    variables = " ".join(sections["Binaries"]).split()
    return constant, objective, rows, fixed, variables


def highs_optimum(inst, form) -> float | None:
    """The optimum of the emitted LP by HiGHS, or None if not proven in time."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    constant, objective, rows, fixed, variables = interpret_lp(
        lp_export.emit_lp(inst, form).text
    )
    index = {name: pos for pos, name in enumerate(variables)}
    c = np.zeros(len(variables))
    for name, coef in objective.items():
        c[index[name]] = coef
    a = lil_matrix((len(rows), len(variables)))
    rhs = np.zeros(len(rows))
    for r, (coefs, bound) in enumerate(rows):
        rhs[r] = bound
        for name, coef in coefs.items():
            a[r, index[name]] = coef
    lower, upper = np.zeros(len(variables)), np.ones(len(variables))
    for name, value in fixed.items():
        lower[index[name]] = upper[index[name]] = value
    result = milp(
        c=c,
        constraints=LinearConstraint(a.tocsr(), -np.inf, rhs),
        integrality=np.ones(len(variables)),
        bounds=Bounds(lower, upper),
        options={"time_limit": HIGHS_TIME_LIMIT},
    )
    if result.status != 0:
        return None
    # every coefficient is integral on these instances, so round HiGHS's float
    return float(round(constant + result.fun))


def independent_optimum(inst, form) -> tuple[float | None, str]:
    if (inst.m + 1) ** inst.n <= exact.BRUTE_FORCE_LIMIT:
        return exact.brute_force(inst, form).objective.total, "brute_force"
    value = highs_optimum(inst, form)
    return value, "highs" if value is not None else "highs: not proven in time"


def needed() -> dict[str, tuple[tuple, wl.Formulation, int | None, bool]]:
    """key -> (spec, formulation, node budget of its exact job, has an exact job)."""
    out = {}

    def add(spec, form, budget=None, has_exact=False):
        key = f"{wl.spec_name(spec)}/{form.value}"
        if key not in out or has_exact:
            out[key] = (spec, form, budget, has_exact)

    for form in wl.FORMS:
        add(wl.BASES["fixture"], form)
        add(wl.BASES["gen-s0-n16-m5"], form, wl.NODE_BUDGET_N16, has_exact=True)
    for base, exact_forms, heuristic_forms in wl.CAPACITY_JOBS:
        for form in heuristic_forms:
            add(wl.BASES[base], form)
        for form in exact_forms:
            add(wl.BASES[base], form, has_exact=True)
            add(wl.unbounded_twin(base), form)
    return out


def compute() -> dict:
    optima = {}
    for key, (spec, form, budget, has_exact) in needed().items():
        inst = wl.build_spec(spec)
        start = time.perf_counter()
        optimum, route = independent_optimum(inst, form)
        seconds = time.perf_counter() - start
        optima[key] = {"optimum": optimum, "route": route, "expect_proven": None}
        print(f"{key}: {optimum} by {route} in {seconds:.1f}s", flush=True)
        if not (has_exact or inst.unbounded_capacity):
            continue  # no exact job, and an unbudgeted search may not end
        bnb = exact.branch_and_bound(inst, form, exact.Budget(max_nodes=budget))
        if bnb.proven_optimal and bnb.objective.total != optimum:
            raise SystemExit(f"{key}: branch and bound {bnb.objective.total} != {route} {optimum}")
        if has_exact:
            optima[key]["expect_proven"] = bnb.proven_optimal
        optima[key]["seed_commit_bnb"] = {
            "node_budget": budget,
            "status": bnb.status,
            "objective": bnb.objective.total,
            "nodes": bnb.nodes_explored,
        }

    rep = reproduce_note(capacity="fixture", time_limit=600.0)
    note = {}
    for figures, mode in zip(rep.modes, ("default", "strict")):
        note[mode] = {
            "crossdock": figures.cross_dock.objective.total,
            "r-crossdock": figures.r_cross_dock.objective.total,
            "s_star": figures.s_star_objective.total,
            "s_prime_star": figures.s_prime_objective.total,
        }
    for form in wl.FORMS:
        if note["default"][form.value] != optima[f"fixture/{form.value}"]["optimum"]:
            raise SystemExit(f"reproduce-note {form.value} disagrees with the reference")
    note["checks"] = {f"{label}/{form}": r.feasible for (label, form), r in rep.checks.items()}
    note["conflict"] = [str(c) for c in rep.conflict.constraints]
    note["routes"] = {
        "optima": "default mode: those of fixture/*; strict mode: branch and bound "
        "at the seed commit (no independent route)",
        "s_star, s_prime_star": "objective_value at the seed commit",
    }
    return {"optima": optima, "note": note}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite references.json")
    args = parser.parse_args()
    refs = compute()
    if args.write:
        wl.REFERENCES_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        print(f"wrote {wl.REFERENCES_PATH}")
        return 0
    stored = wl.load_references()
    if stored != refs:
        print("references.json differs from the recomputed references")
        return 1
    print("references.json matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
