"""Instance/solution file formats, the seeded instance generator and fixtures.

Both file formats are JSON with 1-based indices, matching the notation used
in reports. Unknown keys are rejected so that typos fail loudly.

Instance schema::

    {
      "name": "...",            (optional)
      "seed": 0,                (optional)
      "n": 2, "m": 1,
      "arrival": [...], "departure": [...],
      "transfer_time": [[...]], "transfer_cost": [[...]],
      "flow": [[...]], "penalty": [[...]],
      "capacity": 100.0 | "unbounded"
    }

Solution schema::

    {"dock": [1, 0, 2, ...], "transfers": [[i, j, k, l], ...]}

with dock entries 0 for unassigned.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .model import Instance, Solution, _integer, _is_number

_SOLUTION_KEYS = {"dock", "transfers"}


class SchemaError(ValueError):
    """A document does not match the instance/solution schema."""


def _load_document(source) -> dict:
    """The JSON object in ``source``: a dict, a file Path, or JSON text."""
    if isinstance(source, dict):
        return source
    text = source.read_text() if isinstance(source, Path) else str(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be a JSON object")
    return doc


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context}: missing key '{key}'")
    return doc[key]


def parse_instance(source) -> Instance:
    """Parse an instance document (dict, JSON text, or file Path) whose keys
    are the fields of :class:`Instance`, capacity None spelt "unbounded". Types
    and shapes are the constructor's check, its ValueError raised as SchemaError."""
    doc = _load_document(source)
    fields = dataclasses.fields(Instance)
    unknown = set(doc) - {field.name for field in fields}
    if unknown:
        raise SchemaError(f"instance: unknown keys {sorted(unknown)}")
    for field in fields:
        if field.default is dataclasses.MISSING:
            _require(doc, field.name, "instance")
    if doc["capacity"] is None:
        raise SchemaError("instance: key 'capacity' must be a number or 'unbounded'")
    if doc["capacity"] == "unbounded":
        doc = {**doc, "capacity": None}
    try:
        return Instance(**doc)
    except ValueError as exc:
        raise SchemaError(f"instance: key {exc}") from exc


def serialize_instance(inst: Instance) -> str:
    """Serialize to JSON, preserving numbers at full precision: the fields of
    :class:`Instance` in order, capacity None spelt "unbounded", an empty name
    and a None seed left out."""
    doc = {
        field.name: getattr(inst, field.name)
        for field in dataclasses.fields(Instance)
        if getattr(inst, field.name) != field.default
    }
    if inst.capacity is None:
        doc["capacity"] = "unbounded"
    return json.dumps(doc, indent=2)


def parse_solution(source) -> Solution:
    """Parse a solution document (dict, JSON text, or file Path). Only the
    schema is checked: every function that reads a solution against an
    instance raises ValueError when it does not fit."""
    doc = _load_document(source)
    unknown = set(doc) - _SOLUTION_KEYS
    if unknown:
        raise SchemaError(f"solution: unknown keys {sorted(unknown)}")
    dock = _require(doc, "dock", "solution")
    try:
        return Solution(dock=dock, transfers=doc.get("transfers", ()))
    except ValueError as exc:
        raise SchemaError(f"solution: {exc}") from exc


def serialize_solution(sol: Solution) -> str:
    doc = {"dock": list(sol.dock), "transfers": [list(t) for t in sol.transfers]}
    return json.dumps(doc, indent=2)


def generate(
    seed: int,
    n: int,
    m: int,
    flow_density: float = 1.0,
    capacity_ratio: float | None = None,
) -> Instance:
    """Seeded random instance shaped after desk-scale data.

    Costs and times are small integers (symmetric, zero diagonal), flows are
    multiples of ten, all windows sit inside one day, and flows are zeroed
    wherever the destination departs before the source arrives so that every
    generated instance validates. ``capacity_ratio`` scales the total
    off-diagonal flow; None means unbounded. A seed, n or m that is not an
    int >= 0 (a bool fails, a numpy integer is stored as an int), n or m of
    0, a flow density that is not a number in [0, 1] (NaN included), or a
    ratio that is not a finite number > 0 or scales the flow beyond float
    range raises ValueError; a bool or a string is not a number.
    """
    for name, value in (("seed", seed), ("n", n), ("m", m)):
        _integer(name, value, 0)
    if not _is_number(flow_density) or not 0 <= flow_density <= 1:
        raise ValueError(
            f"flow density must be a number in [0, 1], got {flow_density!r}"
        )
    if capacity_ratio is not None and (
        not _is_number(capacity_ratio) or not 0 < capacity_ratio < math.inf
    ):
        raise ValueError(
            f"capacity ratio must be a finite number > 0, got {capacity_ratio!r}"
        )
    rng = np.random.default_rng(seed)

    t = [[0.0] * m for _ in range(m)]
    c = [[0.0] * m for _ in range(m)]
    for k in range(m):
        for l in range(k + 1, m):
            t[k][l] = t[l][k] = float(rng.integers(1, 6))
            c[k][l] = c[l][k] = float(rng.integers(1, 6))

    arrival = [round(15.0 + 2.0 * rng.random(), 2) for _ in range(n)]
    departure = [round(a + 0.5 + 1.0 * rng.random(), 2) for a in arrival]

    flow = [[0.0] * n for _ in range(n)]
    penalty = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            penalty[i][j] = 10.0 * float(rng.integers(10, 21))
            dense = rng.random() < flow_density
            flow[i][j] = 10.0 * float(rng.integers(10, 21)) if dense else 0.0
    for i in range(n):
        for j in range(n):
            if i != j and departure[j] < arrival[i]:
                flow[i][j] = 0.0

    capacity: float | None = None
    if capacity_ratio is not None:
        total = sum(flow[i][j] for i in range(n) for j in range(n) if i != j)
        scaled = capacity_ratio * total
        if not math.isfinite(scaled):
            raise ValueError(
                f"capacity ratio {capacity_ratio!r} gives a capacity that is not finite"
            )
        capacity = max(1.0, round(scaled))

    return Instance(
        n=n,
        m=m,
        arrival=arrival,
        departure=departure,
        transfer_time=t,
        transfer_cost=c,
        flow=flow,
        penalty=penalty,
        capacity=capacity,
        name=f"gen-seed{seed}-n{n}-m{m}",
        seed=seed,
    )


def fixture_text(name: str) -> str:
    """Raw text of a bundled fixture file."""
    return resources.files("crossdock.fixtures").joinpath(name).read_text()


def load_fixture_instance() -> Instance:
    return parse_instance(fixture_text("miao_example.json"))


def load_fixture_solution(name: str) -> Solution:
    return parse_solution(fixture_text(name))
