import re
from pathlib import Path

import pytest

from crossdock.exact import brute_force
from crossdock.formulations import Formulation, objective_value
from crossdock.instance_io import generate
from crossdock.lp_export import emit_lp, lp_filename
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


def test_single_truck_edge_case():
    inst = generate(1, n=1, m=2)
    doc = emit_lp(inst, CD)
    assert doc.variable_count == 2
    assert "Minimize" in doc.text and "End" in doc.text


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
                rows.append(" ".join(pending_row))
            pending_row = [line.split(":", 1)[1]]
        else:
            pending_row.append(line)
    constraints = []
    for row in rows:
        lhs, rhs = row.rsplit("<=", 1)
        constraints.append((parse_terms(lhs.split()), float(rhs)))

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
            for row, rhs in constraints
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
