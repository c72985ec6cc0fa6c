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

import re
from dataclasses import dataclass

from .formulations import Formulation, _check_form, compile_rules
from .model import EPS, Instance, total_penalty_constant

_WRAP = 78


@dataclass(frozen=True)
class LpDocument:
    text: str
    objective_constant: float
    variable_count: int
    constraint_count: int


def lp_filename(instance_name: str, form: Formulation) -> str:
    """The file name for an instance's LP file: a name whose every character
    outside A-Z, a-z, 0-9, '.', '_' and '-' becomes '_', so that it names one
    file in the working directory and fits on the header's comment line."""
    _check_form(form)
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", instance_name or "instance")
    return f"{safe}__{form.value}.lp"


def _num(x: float) -> str:
    return f"{x:.17g}"


def _wrap_terms(first: str, terms: list[str], indent: str) -> list[str]:
    """``first`` and the ``terms``, space-separated, wrapped to lines of at
    most _WRAP columns where a term allows; a continuation line starts with
    ``indent`` and a space. A running length finds the breaks, and each
    line's parts are joined once."""
    lines = []
    parts, width = [first], len(first)
    for term in terms:
        if width + 1 + len(term) > _WRAP:
            lines.append(" ".join(parts))
            parts, width = [indent, term], len(indent) + 1 + len(term)
        else:
            parts.append(term)
            width += 1 + len(term)
    lines.append(" ".join(parts))
    return lines


def emit_lp(inst: Instance, form: Formulation) -> LpDocument:
    """Emit the default-mode model (self-flows excluded) as an LP document.

    Each variable name is formatted once, into ``y_names[i - 1][k - 1]`` and
    ``z_names`` (indexed like ``z_index``); the row labels, the capacity
    blocks, the Bounds and the Binaries are all read from these tables. For
    an unbounded buffer, the capacity rows' right-hand side is the total
    off-diagonal flow, where the rules hold ``math.inf``.
    """
    n, m = inst.n, inst.m
    rules = compile_rules(inst, form)
    cd = form is Formulation.CROSS_DOCK

    y_names = [[f"y_{i}_{k}" for k in inst.docks()] for i in inst.trucks()]
    y_vars = [name for row in y_names for name in row]
    truck_pairs = [(i, j) for i in inst.trucks() for j in inst.trucks() if j != i]
    dock_pairs = [(k, l) for k in inst.docks() for l in inst.docks()]
    z_index = [(i, j, k, l) for i, j in truck_pairs for k, l in dock_pairs]
    z_names = [f"z_{i}_{j}_{k}_{l}" for i, j, k, l in z_index]
    z_table = list(zip(z_index, z_names))

    constant = total_penalty_constant(inst)
    rows = 0

    obj_terms = []
    for (i, j, k, l), z in z_table:
        coef = rules.ct[k - 1][l - 1] - rules.pf[i - 1][j - 1]
        obj_terms.append(f"{'+' if coef >= 0 else '-'} {_num(abs(coef))} {z}")
    if not obj_terms:
        obj_terms = [f"+ 0 {y_vars[0]}"]  # n = 1: no transfer variables exist

    header = [
        f"\\ {lp_filename(inst.name, form)}",
        f"\\ formulation: {form.value}",
        f"\\ objective constant (add to the optimum): {_num(constant)}",
        f"\\ variables: {len(y_vars)} y + {len(z_index)} z",
    ]

    body: list[str] = ["Minimize"]
    body.extend(_wrap_terms(" obj:", obj_terms, "  "))
    body.append("Subject To")

    # dock uniqueness
    for i, names in enumerate(y_names, start=1):
        terms = [f"+ {y}" for y in names] + ["<= 1"]
        body.extend(_wrap_terms(f" du_{i}:", terms, "  "))
        rows += 1
    # linking z <= y_ik and z <= y_jl; a z name's suffix labels its rows
    for (i, j, k, l), z in z_table:
        body.append(f" lzi_{z[2:]}: {z} - {y_names[i - 1][k - 1]} <= 0")
    for (i, j, k, l), z in z_table:
        body.append(f" lzj_{z[2:]}: {z} - {y_names[j - 1][l - 1]} <= 0")
    rows += 2 * len(z_index)
    if cd:
        for (i, j, k, l), z in z_table:
            body.append(
                f" pf_{z[2:]}: {y_names[i - 1][k - 1]} + {y_names[j - 1][l - 1]} "
                f"- {z} <= 1"
            )
        rows += len(z_index)
    # same-dock precedence: the p-th truck pair's z_i_j_k_k is
    # z_names[(p * m + k - 1) * m + k - 1]
    for p, (i, j) in enumerate(truck_pairs):
        bound = rules.same_dock_bound[i - 1][j - 1]
        for k in inst.docks():
            z = z_names[(p * m + k - 1) * m + k - 1]
            body.append(f" sd_{i}_{j}_{k}: {z} <= {bound}")
            rows += 1
    # LP solvers read no infinite right-hand side: an unbounded buffer gets
    # the total flow, which no occupancy can exceed
    cap = inst.capacity
    if cap is None:
        cap = sum(inst.flow[i - 1][j - 1] for i, j in truck_pairs)
    # capacity at every event time (no rows without transfer variables):
    # every z_i_j_k_l of the pair (i, j) holds the same buffer interval, so
    # each pair's terms are one block of the name table
    if z_index:
        blocks = []
        for p, (i, j) in enumerate(truck_pairs):
            lo, hi, units = rules.hold[i - 1][j - 1]
            if abs(units) > EPS:
                coef = f"+ {_num(units)}" if units > 0 else f"- {_num(-units)}"
                names = z_names[p * m * m : (p + 1) * m * m]
                blocks.append((lo, hi, [f"{coef} {z}" for z in names]))
        for r in range(2 * n):
            terms = [term for lo, hi, block in blocks if lo <= r < hi for term in block]
            if not terms:
                terms = ["+ 0 " + z_names[0]]
            terms.append(f"<= {_num(cap)}")
            body.extend(_wrap_terms(f" cap_{r + 1}:", terms, "  "))
            rows += 1
    if not cd:
        for i in inst.trucks():
            for j in range(i + 1, n + 1):
                # 1 + xhat_ij + xhat_ji: 2 unless the two windows overlap
                rhs = 1 if rules.overlap[i - 1][j - 1] else 2
                for k, (yi, yj) in enumerate(zip(y_names[i - 1], y_names[j - 1]), 1):
                    body.append(f" dc_{i}_{j}_{k}: {yi} + {yj} <= {rhs}")
                    rows += 1

    body.append("Bounds")
    for (i, j, k, l), z in z_table:
        if not rules.time_ok[i - 1][j - 1][k - 1][l - 1]:
            body.append(f" {z} = 0")

    body.append("Binaries")
    body.extend(_wrap_terms("", y_vars + z_names, ""))
    body.append("End")

    header.append(f"\\ constraints: {rows}")
    text = "\n".join(header + body) + "\n"
    return LpDocument(
        text=text,
        objective_constant=constant,
        variable_count=len(y_vars) + len(z_index),
        constraint_count=rows,
    )
