"""Property-based differential: branch and bound against the brute-force
oracle on generated instances, with and without a binding buffer capacity."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from crossdock.exact import branch_and_bound, brute_force  # noqa: E402
from crossdock.formulations import Formulation, check_solution  # noqa: E402
from crossdock.instance_io import generate  # noqa: E402


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 999),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    ratio=st.sampled_from([None, 0.05, 0.1, 0.3]),
    form=st.sampled_from(list(Formulation)),
    include_diagonal=st.booleans(),
)
def test_branch_and_bound_matches_brute_force(
    seed, n, m, ratio, form, include_diagonal
):
    inst = generate(seed, n, m, capacity_ratio=ratio)
    oracle = brute_force(inst, form, include_diagonal).objective.total
    result = branch_and_bound(inst, form, include_diagonal=include_diagonal)
    # every transfer selection is exact, so an unbudgeted search is proven
    assert result.proven_optimal
    assert result.objective.total == pytest.approx(oracle, abs=1e-6)
    assert check_solution(inst, result.best, form, include_diagonal).feasible
    assert result.bound_at_root <= oracle + 1e-6
