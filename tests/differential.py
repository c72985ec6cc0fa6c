"""The differential record: what every solver returns on a fixed grid.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/differential.py

It rewrites ``tests/data/differential.txt``, one record per line, and
``tests/test_differential.py`` regenerates the records and compares them
with that file. A change that keeps every output passes; a change that moves
an output on purpose regenerates the file, and its git diff shows which
records moved.

The records, for each instance:

* ``data``: a sha256 of the instance's data, so a change in numpy's random
  stream reads as "the instance moved", not as "the solver moved";
* ``bnb``: branch and bound at ``max_nodes=20000``, ``vns``: VNS at
  ``iter_max=4, rng_seed=3``, and ``brute``: brute force where
  (m + 1)^n <= 20,000; each in both models and both diagonal modes, with the
  objective, nodes, root bound, status, trace and solution;
* ``lp``: a sha256 of each model's ``emit_lp`` text;
* ``conflict``: ``find_conflict`` in each model on 7 seeded dock arrays.

Floats are written with ``repr``; no wall time is recorded.

The grid: ``generate(s, n, m, capacity_ratio=r)`` for s in 0..3, (n, m) in
{(3, 1), (4, 2), (5, 2), (6, 3), (7, 2)} and r in {None, .05, .1, .3}; the
fixture at capacity None, 2000 and 5000; the two-truck instances of
``test_subproblem._boundary_instance``, whose one load sits at the buffer's
fit boundary; and three two-truck instances whose transfers gain one float
below, at and above EPS, where the ship rule draws its line.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from pathlib import Path

import numpy as np

from crossdock.diagnosis import find_conflict
from crossdock.exact import Budget, branch_and_bound, brute_force
from crossdock.formulations import Formulation
from crossdock.instance_io import generate, load_fixture_instance
from crossdock.lp_export import emit_lp
from crossdock.model import EPS, Instance
from crossdock.vns import VnsConfig, vns_solve

from test_subproblem import _BOUNDARY_CAPACITIES, _boundary_instance, _boundary_loads

RECORD = Path(__file__).parent / "data" / "differential.txt"

BNB_BUDGET = Budget(max_nodes=20000)
VNS_CONFIG = VnsConfig(iter_max=4, rng_seed=3)
BRUTE_LIMIT = 20000
DOCK_ARRAYS = 7


def _ship_boundary(gain: float) -> Instance:
    """Two trucks, two docks, free transfers: truck 1's flow to truck 2 and
    to itself each gain ``gain``."""
    return Instance(
        n=2,
        m=2,
        arrival=(0.0, 2.0),
        departure=(3.0, 5.0),
        transfer_time=((0.0, 0.0), (0.0, 0.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=((1.0, 1.0), (0.0, 0.0)),
        penalty=((gain, gain), (0.0, 0.0)),
        capacity=None,
    )


def instances():
    """(name, instance) pairs of the grid, in record order."""
    for s, (n, m), r in itertools.product(
        range(4), ((3, 1), (4, 2), (5, 2), (6, 3), (7, 2)), (None, 0.05, 0.1, 0.3)
    ):
        yield f"gen({s},{n},{m},{r!r})", generate(s, n, m, capacity_ratio=r)
    fixture = load_fixture_instance()
    for capacity in (None, 2000, 5000):
        yield f"fixture({capacity!r})", fixture.with_capacity(capacity)
    for capacity in _BOUNDARY_CAPACITIES:
        for f12 in _boundary_loads(capacity):
            yield f"boundary({capacity!r},{f12!r})", _boundary_instance(capacity, f12)
    for gain in (math.nextafter(EPS, 0.0), EPS, math.nextafter(EPS, math.inf)):
        yield f"ship({gain!r})", _ship_boundary(gain)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _data(inst: Instance) -> str:
    fields = (
        inst.n,
        inst.m,
        inst.arrival,
        inst.departure,
        inst.transfer_time,
        inst.transfer_cost,
        inst.flow,
        inst.penalty,
        inst.capacity,
    )
    return _sha(repr(fields))


def _result(result) -> str:
    o = result.objective
    return (
        f"objective={o.total!r} cost={o.transfer_cost_total!r} "
        f"penalty={o.penalty_total!r} pairs={o.fulfilled_pairs} "
        f"nodes={result.nodes_explored} root={result.bound_at_root!r} "
        f"status={result.status} trace={list(result.trace)!r} "
        f"dock={list(result.best.dock)} transfers={list(result.best.transfers)}"
    )


def records(name: str, inst: Instance):
    """The records of one instance, as lines without their newline."""
    yield f"data {name} {_data(inst)}"
    for form, diag in itertools.product(Formulation, (False, True)):
        where = f"{name} {form.value} {'strict' if diag else 'default'}"
        yield f"bnb {where} {_result(branch_and_bound(inst, form, BNB_BUDGET, diag))}"
        yield f"vns {where} {_result(vns_solve(inst, form, VNS_CONFIG, diag))}"
        if (inst.m + 1) ** inst.n <= BRUTE_LIMIT:
            yield f"brute {where} {_result(brute_force(inst, form, diag))}"
    docks = [
        [int(k) for k in np.random.default_rng(seed).integers(0, inst.m + 1, inst.n)]
        for seed in range(DOCK_ARRAYS)
    ]
    for form in Formulation:
        yield f"lp {name} {form.value} {_sha(emit_lp(inst, form).text)}"
        for dock in docks:
            conflict = find_conflict(inst, dock, form)
            found = (
                "consistent"
                if conflict is None
                else f"{', '.join(map(str, conflict.constraints))} minimal={conflict.minimal}"
            )
            yield f"conflict {name} {form.value} dock={dock} {found}"


def all_records():
    for name, inst in instances():
        yield from records(name, inst)


def main() -> None:
    lines = list(all_records())
    RECORD.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} records to {RECORD}")


if __name__ == "__main__":
    main()
