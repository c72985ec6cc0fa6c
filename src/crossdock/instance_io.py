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

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .model import Instance, Solution, _check_count, _is_number

_INSTANCE_KEYS = {
    "name",
    "seed",
    "n",
    "m",
    "arrival",
    "departure",
    "transfer_time",
    "transfer_cost",
    "flow",
    "penalty",
    "capacity",
}
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


def _require(doc: dict, key: str, kind, context: str):
    if key not in doc:
        raise SchemaError(f"{context}: missing key '{key}'")
    value = doc[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{context}: key '{key}' must be an integer")
        return value
    return value


def _real(x: int | float) -> float:
    """``float(x)``, except that an integer beyond float range reads as the
    infinity of its sign, as the same number written with an exponent does."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _number_list(raw, key: str, length: int) -> list[float]:
    """``raw``, the value labelled ``key``, as ``length`` floats."""
    if not isinstance(raw, list) or len(raw) != length:
        raise SchemaError(f"instance: key '{key}' must be a list of {length} numbers")
    for idx, x in enumerate(raw):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise SchemaError(f"instance: key '{key}[{idx + 1}]' must be a number")
    return [_real(x) for x in raw]


def _number_matrix(raw, key: str, nrows: int, ncols: int) -> list[list[float]]:
    """``raw`` as ``nrows`` rows, each read by :func:`_number_list` as ``key[r]``."""
    if not isinstance(raw, list) or len(raw) != nrows:
        raise SchemaError(f"instance: key '{key}' must be a {nrows}x{ncols} matrix")
    return [_number_list(row, f"{key}[{r + 1}]", ncols) for r, row in enumerate(raw)]


def parse_instance(source) -> Instance:
    """Parse an instance document (dict, JSON text, or file Path)."""
    doc = _load_document(source)
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise SchemaError(f"instance: unknown keys {sorted(unknown)}")
    n = _require(doc, "n", int, "instance")
    m = _require(doc, "m", int, "instance")
    if n < 1 or m < 1:
        raise SchemaError("instance: keys 'n' and 'm' must be positive")
    capacity = _require(doc, "capacity", object, "instance")
    if capacity == "unbounded":
        capacity_value = None
    elif isinstance(capacity, (int, float)) and not isinstance(capacity, bool):
        capacity_value = _real(capacity)
    else:
        raise SchemaError("instance: key 'capacity' must be a number or 'unbounded'")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("instance: key 'name' must be a string")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SchemaError("instance: key 'seed' must be an integer")

    def field(key):
        return _require(doc, key, list, "instance")

    return Instance(
        n=n,
        m=m,
        arrival=_number_list(field("arrival"), "arrival", n),
        departure=_number_list(field("departure"), "departure", n),
        transfer_time=_number_matrix(field("transfer_time"), "transfer_time", m, m),
        transfer_cost=_number_matrix(field("transfer_cost"), "transfer_cost", m, m),
        flow=_number_matrix(field("flow"), "flow", n, n),
        penalty=_number_matrix(field("penalty"), "penalty", n, n),
        capacity=capacity_value,
        name=name,
        seed=seed,
    )


def serialize_instance(inst: Instance) -> str:
    """Serialize to JSON, preserving numbers at full precision."""
    doc = {
        "n": inst.n,
        "m": inst.m,
        "arrival": list(inst.arrival),
        "departure": list(inst.departure),
        "transfer_time": [list(r) for r in inst.transfer_time],
        "transfer_cost": [list(r) for r in inst.transfer_cost],
        "flow": [list(r) for r in inst.flow],
        "penalty": [list(r) for r in inst.penalty],
        "capacity": "unbounded" if inst.capacity is None else inst.capacity,
    }
    if inst.name:
        doc["name"] = inst.name
    if inst.seed is not None:
        doc["seed"] = inst.seed
    return json.dumps(doc, indent=2)


def parse_solution(source) -> Solution:
    """Parse a solution document (dict, JSON text, or file Path). Only the
    schema is checked: every function that reads a solution against an
    instance raises ValueError when it does not fit."""
    doc = _load_document(source)
    unknown = set(doc) - _SOLUTION_KEYS
    if unknown:
        raise SchemaError(f"solution: unknown keys {sorted(unknown)}")
    dock = _require(doc, "dock", list, "solution")
    if not isinstance(dock, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in dock
    ):
        raise SchemaError("solution: key 'dock' must be a list of integers")
    transfers_raw = doc.get("transfers", [])
    if not isinstance(transfers_raw, list):
        raise SchemaError("solution: key 'transfers' must be a list")
    transfers = []
    for idx, entry in enumerate(transfers_raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 4
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise SchemaError(
                f"solution: key 'transfers[{idx + 1}]' must be [i, j, k, l]"
            )
        transfers.append(tuple(entry))
    try:
        return Solution(dock=tuple(dock), transfers=tuple(transfers))
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
        _check_count(name, value)
    seed, n, m = int(seed), int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
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
