"""CPLEX-dialect LP files for both formulations, for external cross-checks.

Sections: Minimize / Subject To / Bounds / Binaries / End. Variables are
y_i_k and z_i_j_k_l with 1-based indices; rows are ordered by constraint
family then indices, coefficients printed with 17 significant digits, and the
emission is byte-deterministic. The objective's constant part (the
all-penalties floor) cannot ride along in every LP dialect, so it is reported
in a header comment and must be added to the solver's optimum.

Every row and coefficient is read from the compiled rules
(:func:`crossdock.formulations.compile_rules`). The nonlinear
time-feasibility constraint is preprocessed into z_i_j_k_l = 0 fixings in the
Bounds section, one for each transfer the rules mark time-infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulations import Formulation, compile_rules
from .model import EPS, Instance, total_penalty_constant

_WRAP = 78


@dataclass(frozen=True)
class LpDocument:
    text: str
    objective_constant: float
    variable_count: int
    constraint_count: int


def lp_filename(instance_name: str, form: Formulation) -> str:
    return f"{instance_name or 'instance'}__{form.value}.lp"


def _num(x: float) -> str:
    return f"{x:.17g}"


def _wrap_terms(label: str, terms: list[str], tail: str) -> list[str]:
    """Render 'label: term term ... tail' wrapped to readable lines."""
    lines = []
    current = f" {label}:"
    for term in terms:
        if len(current) + 1 + len(term) > _WRAP:
            lines.append(current)
            current = "   " + term
        else:
            current += " " + term
    if tail:
        if len(current) + 1 + len(tail) > _WRAP:
            lines.append(current)
            current = "   " + tail
        else:
            current += " " + tail
    lines.append(current)
    return lines


def emit_lp(inst: Instance, form: Formulation) -> LpDocument:
    """Emit the default-mode model (self-flows excluded) as an LP document."""
    n = inst.n
    rules = compile_rules(inst, form, False)
    cd = form is Formulation.CROSS_DOCK

    def yname(i, k):
        return f"y_{i}_{k}"

    def zname(i, j, k, l):
        return f"z_{i}_{j}_{k}_{l}"

    y_vars = [yname(i, k) for i in inst.trucks() for k in inst.docks()]
    truck_pairs = [(i, j) for i in inst.trucks() for j in inst.trucks() if j != i]
    dock_pairs = [(k, l) for k in inst.docks() for l in inst.docks()]
    z_index = [(i, j, k, l) for i, j in truck_pairs for k, l in dock_pairs]

    constant = total_penalty_constant(inst)
    lines: list[str] = []
    rows = 0

    obj_terms = []
    for (i, j, k, l) in z_index:
        coef = rules.ct[k - 1][l - 1] - rules.pf[i - 1][j - 1]
        obj_terms.append(f"{'+' if coef >= 0 else '-'} {_num(abs(coef))} {zname(i, j, k, l)}")
    if not obj_terms:
        obj_terms = [f"+ 0 {y_vars[0]}"]  # n = 1: no transfer variables exist

    header = [
        f"\\ {lp_filename(inst.name, form)}",
        f"\\ formulation: {form.value}",
        f"\\ objective constant (add to the optimum): {_num(constant)}",
        f"\\ variables: {len(y_vars)} y + {len(z_index)} z",
    ]

    body: list[str] = ["Minimize"]
    body.extend(_wrap_terms("obj", obj_terms, ""))
    body.append("Subject To")

    # dock uniqueness
    for i in inst.trucks():
        terms = [f"+ {yname(i, k)}" for k in inst.docks()]
        body.extend(_wrap_terms(f"du_{i}", terms, "<= 1"))
        rows += 1
    # linking z <= y_ik and z <= y_jl
    for (i, j, k, l) in z_index:
        body.append(f" lzi_{i}_{j}_{k}_{l}: {zname(i, j, k, l)} - {yname(i, k)} <= 0")
        rows += 1
    for (i, j, k, l) in z_index:
        body.append(f" lzj_{i}_{j}_{k}_{l}: {zname(i, j, k, l)} - {yname(j, l)} <= 0")
        rows += 1
    if cd:
        for (i, j, k, l) in z_index:
            body.append(
                f" pf_{i}_{j}_{k}_{l}: {yname(i, k)} + {yname(j, l)} "
                f"- {zname(i, j, k, l)} <= 1"
            )
            rows += 1
    # same-dock precedence
    for i, j in truck_pairs:
        bound = rules.same_dock_bound[i - 1][j - 1]
        for k in inst.docks():
            body.append(f" sd_{i}_{j}_{k}: {zname(i, j, k, k)} <= {bound}")
            rows += 1
    # capacity at every event time (no rows without transfer variables):
    # every z_i_j_k_l of the pair (i, j) holds the same buffer interval
    cap = rules.capacity
    if z_index:
        blocks = [
            (rules.hold[i - 1][j - 1], [zname(i, j, k, l) for k, l in dock_pairs])
            for i, j in truck_pairs
        ]
        for r in range(2 * n):
            terms = []
            for (lo, hi, units), names in blocks:
                if lo <= r < hi and abs(units) > EPS:
                    coef = f"+ {_num(units)}" if units > 0 else f"- {_num(-units)}"
                    terms += [f"{coef} {name}" for name in names]
            if not terms:
                terms = ["+ 0 " + zname(*z_index[0])]
            body.extend(_wrap_terms(f"cap_{r + 1}", terms, f"<= {_num(cap)}"))
            rows += 1
    if not cd:
        for i in inst.trucks():
            for j in range(i + 1, n + 1):
                # 1 + xhat_ij + xhat_ji: 2 unless the two windows overlap
                rhs = 1 if rules.overlap[i - 1][j - 1] else 2
                for k in inst.docks():
                    body.append(
                        f" dc_{i}_{j}_{k}: {yname(i, k)} + {yname(j, k)} <= {rhs}"
                    )
                    rows += 1

    body.append("Bounds")
    for (i, j, k, l) in z_index:
        if not rules.time_ok[i - 1][j - 1][k - 1][l - 1]:
            body.append(f" {zname(i, j, k, l)} = 0")

    body.append("Binaries")
    names = y_vars + [zname(*idx) for idx in z_index]
    current = ""
    for name in names:
        if len(current) + 1 + len(name) > _WRAP:
            body.append(current)
            current = " " + name
        else:
            current += " " + name
    if current:
        body.append(current)
    body.append("End")

    header.append(f"\\ constraints: {rows}")
    text = "\n".join(header + body) + "\n"
    return LpDocument(
        text=text,
        objective_constant=constant,
        variable_count=len(y_vars) + len(z_index),
        constraint_count=rows,
    )
