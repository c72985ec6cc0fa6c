"""Cross-validate the LP exports with an independent MILP engine.

The emitted text is parsed back with a standalone interpreter and handed to
HiGHS (via scipy.optimize.milp). The external optimum plus the reported
constant must reproduce the toolkit's branch-and-bound optimum, both on the
reference instance and on random small instances against the brute-force
oracle, including instances where the buffer capacity changes the optimum.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from crossdock.exact import branch_and_bound, brute_force
from crossdock.formulations import Formulation
from crossdock.instance_io import generate
from crossdock.lp_export import emit_lp

from test_lp_export import _interpret_lp

CD = Formulation.CROSS_DOCK
RCD = Formulation.R_CROSS_DOCK


def _solve_lp_with_highs(text: str) -> float:
    constant, objective, constraints, fixed, variables = _interpret_lp(text)
    index = {name: pos for pos, name in enumerate(variables)}
    c = np.zeros(len(variables))
    for name, coef in objective.items():
        c[index[name]] = coef
    a = lil_matrix((len(constraints), len(variables)))
    rhs = np.zeros(len(constraints))
    for row, (coefs, bound) in enumerate(constraints.values()):
        rhs[row] = bound
        for name, coef in coefs.items():
            a[row, index[name]] = coef
    lower = np.zeros(len(variables))
    upper = np.ones(len(variables))
    for name, value in fixed.items():
        lower[index[name]] = value
        upper[index[name]] = value
    result = milp(
        c=c,
        constraints=LinearConstraint(a.tocsr(), -np.inf, rhs),
        integrality=np.ones(len(variables)),
        bounds=Bounds(lower, upper),
    )
    assert result.status == 0, result.message
    return constant + result.fun


def test_reference_instance_reproduced_by_external_solver(nine_truck):
    for form, expected in ((CD, 1_584_704.0), (RCD, 1_349_910.0)):
        doc = emit_lp(nine_truck, form)
        external = _solve_lp_with_highs(doc.text)
        internal = branch_and_bound(nine_truck, form).objective.total
        assert internal == expected
        assert external == pytest.approx(internal, abs=1e-6)


def test_random_instances_reproduced_by_external_solver():
    for seed in range(10):
        inst = generate(
            seed, n=3 + seed % 2, m=2, capacity_ratio=0.5 if seed % 2 else None
        )
        for form in (CD, RCD):
            doc = emit_lp(inst, form)
            external = _solve_lp_with_highs(doc.text)
            oracle = brute_force(inst, form).objective.total
            assert external == pytest.approx(oracle, abs=1e-6)


def test_binding_capacity_reproduced_by_external_solver():
    # capacity_ratio=0.05 binds on the generator's data (0.5 never does):
    # HiGHS on the exported capacity rows must meet the brute-force oracle
    cases = changed = 0
    for seed, n, form in itertools.product(range(20), (3, 4, 5), (CD, RCD)):
        inst = generate(seed, n=n, m=2, capacity_ratio=0.05)
        oracle = brute_force(inst, form).objective.total
        assert _solve_lp_with_highs(emit_lp(inst, form).text) == pytest.approx(
            oracle, abs=1e-6
        ), (seed, n, form)
        unbounded = brute_force(inst.with_capacity(None), form).objective.total
        changed += abs(oracle - unbounded) > 1e-6
        cases += 1
    assert cases == 120
    assert changed >= cases // 2, changed
