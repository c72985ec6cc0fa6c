import hashlib
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from crossdock.exact import brute_force
from crossdock.formulations import Formulation, compile_rules, objective_value
from crossdock.instance_io import generate
from crossdock.lp_export import emit_lp, lp_filename
from crossdock.model import EPS
from conftest import tiny_two_truck

CD = Formulation.CROSS_DOCK
RCD = Formulation.R_CROSS_DOCK


def test_tiny_variable_counts():
    doc = emit_lp(tiny_two_truck(), CD)
    # n=2, m=1: two y variables and two z variables
    assert doc.variable_count == 4
    assert doc.text.count(" y_") >= 2
    assert "z_1_2_1_1" in doc.text and "z_2_1_1_1" in doc.text


def test_reference_counts(nine_truck):
    for form in (CD, RCD):
        doc = emit_lp(nine_truck, form)
        assert doc.variable_count == 54 + 2592  # n*m and n(n-1)m^2


def test_emission_is_byte_identical(nine_truck):
    for form in (CD, RCD):
        a = emit_lp(nine_truck, form)
        b = emit_lp(nine_truck, form)
        assert a.text == b.text
        assert a == b


@pytest.mark.parametrize("form", [CD, RCD])
def test_bundled_exports_match_the_writer(nine_truck, form):
    data = Path(__file__).resolve().parents[1] / "data"
    shipped = (data / lp_filename(nine_truck.name, form)).read_text()
    assert emit_lp(nine_truck, form).text == shipped


def test_sections_present(nine_truck):
    doc = emit_lp(nine_truck, CD)
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert f"\n{section}\n" in doc.text or doc.text.startswith(section)


def test_row_families_by_formulation(nine_truck):
    cd_doc = emit_lp(nine_truck, CD).text
    rcd_doc = emit_lp(nine_truck, RCD).text
    assert " pf_" in cd_doc and " pf_" not in rcd_doc
    assert " dc_" in rcd_doc and " dc_" not in cd_doc
    for tag in (" du_", " lzi_", " lzj_", " sd_", " cap_"):
        assert tag in cd_doc and tag in rcd_doc


def test_time_fixings_in_bounds(nine_truck):
    cd_doc = emit_lp(nine_truck, CD).text
    bounds = cd_doc.split("Bounds\n")[1].split("Binaries")[0]
    # the pair (1,2) at docks (1,2) is fixed to zero in both formulations
    assert " z_1_2_1_2 = 0" in bounds
    rcd_doc = emit_lp(nine_truck, RCD).text
    rbounds = rcd_doc.split("Bounds\n")[1].split("Binaries")[0]
    assert " z_1_2_1_2 = 0" in rbounds
    # boundary case: margin exactly zero is legal under the original model
    # but fixed under the revised one (trucks 5 -> 1, zero-time same dock)
    assert " z_5_1_1_1 = 0" not in bounds
    assert " z_5_1_1_1 = 0" in rbounds


def _objective_coefficients(text: str) -> dict[str, float]:
    obj_part = text.split("Minimize\n")[1].split("Subject To")[0]
    obj_part = obj_part.replace("\n", " ")
    coefs = {}
    for sign, num, var in re.findall(
        r"([+-]) (\S+) (z_\d+_\d+_\d+_\d+|y_\d+_\d+)", obj_part
    ):
        coefs[var] = float(num) * (1 if sign == "+" else -1)
    return coefs


def test_objective_reconstruction_matches_evaluator(nine_truck, s_star):
    doc = emit_lp(nine_truck, CD)
    coefs = _objective_coefficients(doc.text)
    assert len(coefs) == 2592
    lp_value = doc.objective_constant + sum(
        coefs[f"z_{i}_{j}_{k}_{l}"] for (i, j, k, l) in s_star.transfers
    )
    direct = objective_value(nine_truck, s_star, CD).total
    assert lp_value == pytest.approx(direct, abs=1e-6)


def test_objective_reconstruction_on_solved_instances():
    for seed in range(6):
        inst = generate(seed, n=3, m=2)
        for form in (CD, RCD):
            doc = emit_lp(inst, form)
            coefs = _objective_coefficients(doc.text)
            best = brute_force(inst, form).best
            lp_value = doc.objective_constant + sum(
                coefs[f"z_{i}_{j}_{k}_{l}"] for (i, j, k, l) in best.transfers
            )
            assert lp_value == pytest.approx(
                objective_value(inst, best, form).total, abs=1e-6
            )


def test_filename_convention(nine_truck):
    assert lp_filename(nine_truck.name, CD) == "miao_example__crossdock.lp"
    assert lp_filename("", RCD) == "instance__r-crossdock.lp"
    # every character outside A-Z a-z 0-9 . _ - becomes '_'
    assert lp_filename("../escaped", CD) == ".._escaped__crossdock.lp"
    assert lp_filename("a b\nc:d/e", RCD) == "a_b_c_d_e__r-crossdock.lp"


def test_single_truck_edge_case():
    inst = generate(1, n=1, m=2)
    doc = emit_lp(inst, CD)
    assert doc.variable_count == 2
    assert "Minimize" in doc.text and "End" in doc.text


def _reversed_flow(inst):
    """``inst`` with a flow of 70 on every pair whose destination departs
    before its source arrives: its ``hold`` units are negative, so the
    capacity rows print negative coefficients. Validation rejects such flows,
    but the writer must still print them faithfully."""
    flow = [list(row) for row in inst.flow]
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j and inst.departure[j] < inst.arrival[i]:
                flow[i][j] = 70.0
    return replace(inst, flow=tuple(tuple(row) for row in flow))


# sha256 of emit_lp(...).text: (reversed flows, seed, n, m, capacity_ratio)
# -> (CROSS-DOCK, R-CROSS-DOCK); n = 1 and m = 1 edge cases, binding
# capacities (ratio 0.05) and negative capacity coefficients
PINNED_LP_HASHES = {
    (False, 1, 1, 2, None): (
        "4d9f2280957f00e139e24f7cedc349e0f2f240d8fefa78d5ab90460e980cdbd7",
        "8e1826f615995e9beac813940a6bdf566613a68d3835b229d92e9192f96fdbdf",
    ),
    (False, 2, 1, 1, None): (
        "ad28d66e038c37bd9e216493e1881b551cf6661748e5cbc8c160aad429a7305e",
        "f9ab33f0a07ac8c78aff1579be3d921b85e861a091b7db5bcff14d8434ac9348",
    ),
    (False, 3, 3, 1, None): (
        "8899e2867ca6c995d7ddbd5a4a201bc3650546737138b2ca5debe8cabb9cc460",
        "7495e1d73a81a712321af402d794c8143b9dcf3bce1ebb6df99ccf2018142f4c",
    ),
    (False, 4, 4, 1, 0.05): (
        "8c22cc006635bbb303dce2e89224533b2680a33f37c796aa136e044a43f6fa71",
        "2e39808242b91478c0ba9dfdfa5048793a1e0e9a4c5b9a2053d94a804c4e0336",
    ),
    (False, 5, 3, 2, None): (
        "a4408ae100f3daa1f5f176523a52147446cc33f8628aa8c07ce92fb30f9146f0",
        "1e6012a99ededefcd4d444c502575806152136ec817592bbe05fd7def93f7eb7",
    ),
    (False, 6, 4, 2, 0.05): (
        "add5a692e2012340c0c22ebaea911f7579c82a716822bfca6d4348bba748c4bb",
        "d349ab138da38ea06c3c8cbc25e15c2e806e743a32cee9ddfc2582132c4b0538",
    ),
    (False, 7, 5, 2, 0.05): (
        "78b143d807d784755f85d2d933c34ead3c4928028dd995cf4914a3575d04a368",
        "cdaf941bb3af6ab8ef7b4623e280f9387d629ba6760cc53da7beeab7055e7a1a",
    ),
    (False, 8, 4, 3, 0.5): (
        "ed38501e63d10c0da866ecdbdfe99758e89a4e659a94f211d63e25ddf9f03037",
        "0d93b2922dcee9cb28debcadda7b4f13c8aa02a41fec0df5d5b2af89d87a8bd1",
    ),
    (True, 12, 5, 2, None): (
        "2094a47148a46b2a1f55000e724a83d4d1e9ab17bdc30f5385f6e5bc06acd20f",
        "fdc150497a2a03b4009a0e269977282c965e94d306c7a5ea60dc9da9c1e873df",
    ),
    (True, 10, 5, 2, 0.05): (
        "bd792fc906aba74334f274be5bd15663872952c76bae1a70c2f07ddc597b7c64",
        "b74dcf134f197573ec6ffc85cc86ebd7d77f56ae90fafc929cb94ad72a423d48",
    ),
    (True, 11, 6, 2, 0.05): (
        "74677129dc063347c98216a4082cc545343b6985db5d3d36ea1aa7b80cc2364e",
        "1d717d90cf24050718b35d2f029935eed5ec2c3d0e686e8b488a1a8d51b2bffe",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_LP_HASHES, key=repr))
def test_exports_of_generated_instances_are_pinned(case):
    reverse, seed, n, m, ratio = case
    inst = generate(seed, n, m, capacity_ratio=ratio)
    if reverse:
        inst = _reversed_flow(inst)
    for form, pinned in zip((CD, RCD), PINNED_LP_HASHES[case]):
        text = emit_lp(inst, form).text
        if reverse:
            capacity_rows = text.split("\n cap_1:")[1].split("Bounds")[0]
            assert " - " in capacity_rows
        assert hashlib.sha256(text.encode()).hexdigest() == pinned, form


def _interpret_lp(text: str):
    """Tiny standalone LP-text interpreter for desk-scale cross-validation."""
    def parse_terms(tokens):
        coefs = {}
        sign, pending = 1.0, None
        for tok in tokens:
            if tok == "+":
                sign, pending = 1.0, None
            elif tok == "-":
                sign, pending = -1.0, None
            else:
                try:
                    pending = float(tok)
                except ValueError:
                    coefs[tok] = coefs.get(tok, 0.0) + sign * (
                        1.0 if pending is None else pending
                    )
                    sign, pending = 1.0, None
        return coefs

    sections = {"header": []}
    current = "header"
    for line in text.splitlines():
        stripped = line.strip()
        if stripped in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            current = stripped
            sections.setdefault(current, [])
            continue
        sections.setdefault(current, []).append(line)

    constant = 0.0
    for line in sections["header"]:
        if "objective constant" in line:
            constant = float(line.split(":")[1])

    obj_tokens = " ".join(sections["Minimize"]).replace("obj:", " ").split()
    objective = parse_terms(obj_tokens)

    rows = []
    pending_row = []
    for line in sections["Subject To"] + ["sentinel: 0 <= 0"]:
        if ":" in line:
            if pending_row:
                rows.append(pending_row)
            pending_row = line.split(":", 1)
        else:
            pending_row.append(line)
    constraints = {}
    for label, *parts in rows:
        lhs, rhs = " ".join(parts).rsplit("<=", 1)
        constraints[label.strip()] = (parse_terms(lhs.split()), float(rhs))

    fixed = {}
    for line in sections.get("Bounds", []):
        name, value = line.split("=")
        fixed[name.strip()] = float(value)

    variables = " ".join(sections["Binaries"]).split()
    return constant, objective, constraints, fixed, variables


def _solve_lp_by_enumeration(text: str) -> float:
    import itertools as it

    constant, objective, constraints, fixed, variables = _interpret_lp(text)
    free = [v for v in variables if v not in fixed]
    assert len(free) <= 14, "enumeration only meant for desk-scale files"
    best = None
    for bits in it.product((0, 1), repeat=len(free)):
        assignment = dict(fixed)
        assignment.update(zip(free, bits))
        if any(
            sum(c * assignment[v] for v, c in row.items()) > rhs + 1e-9
            for row, rhs in constraints.values()
        ):
            continue
        value = constant + sum(
            c * assignment[v] for v, c in objective.items()
        )
        best = value if best is None else min(best, value)
    return best


def test_emitted_lp_solves_to_the_solver_optimum():
    # independent path: interpret the LP text and enumerate every binary
    # assignment; the file alone must reproduce the solver's optimum
    nontrivial = tiny_two_truck(t11=1.0, c11=3.0, f12=5.0, p12=2.0)
    for inst in (nontrivial, generate(13, n=2, m=2), generate(21, n=2, m=2)):
        for form in (CD, RCD):
            doc = emit_lp(inst, form)
            lp_optimum = _solve_lp_by_enumeration(doc.text)
            solver = brute_force(inst, form)
            assert lp_optimum == pytest.approx(solver.objective.total, abs=1e-6)


def test_capacity_rows_match_the_compiled_rules():
    # row by row: cap_r carries, for every pair whose buffer interval covers
    # event r, each of the pair's z at the pair's units, and nothing else;
    # its right-hand side is the capacity. Dropping a row leaves the optima
    # of these instances unchanged, so only this test names the row
    binding = 0
    for seed, (n, m) in itertools.product(range(3), ((5, 2), (6, 3))):
        inst = generate(seed, n, m, capacity_ratio=0.05)
        for form in (CD, RCD):
            rules = compile_rules(inst, form)
            constraints = _interpret_lp(emit_lp(inst, form).text)[2]
            labels = [label for label in constraints if label.startswith("cap_")]
            assert labels == [f"cap_{r}" for r in range(1, len(rules.events) + 1)]
            for r, label in enumerate(labels):
                covering = [
                    (i, j, units)
                    for i, j in itertools.permutations(inst.trucks(), 2)
                    for lo, hi, units in [rules.hold[i - 1][j - 1]]
                    if lo <= r < hi and abs(units) > EPS
                ]
                expected = {
                    f"z_{i}_{j}_{k}_{l}": units
                    for i, j, units in covering
                    for k in inst.docks()
                    for l in inst.docks()
                }
                coefs, rhs = constraints[label]
                assert {z: c for z, c in coefs.items() if c} == expected, (seed, form, label)
                assert rhs == inst.capacity
                assert rules.limit - rhs <= EPS < math.nextafter(rules.limit, math.inf) - rhs
                # a pair ships through at most one dock pair
                binding += sum(units for _, _, units in covering) > rhs
    assert binding > 0, "no row can bind; the instances are too loose"
