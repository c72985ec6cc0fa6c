"""Core data model: problem instances, derived quantities and solutions.

Conventions used across the package:

* Trucks and docks are 1-based in every user-facing surface (APIs that take
  truck/dock indices, file formats, reports). The raw tuple fields of
  :class:`Instance` are 0-based sequences; use the accessors ``a(i)``,
  ``d(i)``, ``t(k, l)``, ... when working in 1-based terms.
* Times are plain reals. Comparisons use the absolute tolerance :data:`EPS`,
  far below the two-decimal resolution of typical data.
* Self-flows (i = j) are outside the model by default; operations accept an
  ``include_diagonal`` flag for the strict-literal variant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

EPS = 1e-9

#: Marker for an absent dock assignment in a Solution's dock array.
UNASSIGNED = 0


class InvalidInstanceError(ValueError):
    """Raised by validate_instance when hard invariants fail."""

    def __init__(self, issues: tuple[ValidationIssue, ...]):
        self.issues = issues
        super().__init__("; ".join(v.message for v in issues))


@dataclass(frozen=True)
class ValidationIssue:
    """A single named validation failure with its (1-based) indices."""

    code: str
    indices: tuple[int, ...]
    message: str


def _matrix(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in rows)


@dataclass(frozen=True)
class Instance:
    """An immutable truck-dock assignment instance.

    ``capacity`` is either a positive real or ``None`` for the unbounded
    sentinel ("unbounded" in files), which the compiled rules and the checker
    read as ``math.inf``.
    """

    n: int
    m: int
    arrival: tuple[float, ...]
    departure: tuple[float, ...]
    transfer_time: tuple[tuple[float, ...], ...]
    transfer_cost: tuple[tuple[float, ...], ...]
    flow: tuple[tuple[float, ...], ...]
    penalty: tuple[tuple[float, ...], ...]
    capacity: float | None
    name: str = ""
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "arrival", tuple(float(x) for x in self.arrival))
        object.__setattr__(self, "departure", tuple(float(x) for x in self.departure))
        for attr in ("transfer_time", "transfer_cost", "flow", "penalty"):
            object.__setattr__(self, attr, _matrix(getattr(self, attr)))
        if self.capacity is not None:
            object.__setattr__(self, "capacity", float(self.capacity))

    # 1-based accessors
    def a(self, i: int) -> float:
        return self.arrival[i - 1]

    def d(self, i: int) -> float:
        return self.departure[i - 1]

    def t(self, k: int, l: int) -> float:
        return self.transfer_time[k - 1][l - 1]

    def c(self, k: int, l: int) -> float:
        return self.transfer_cost[k - 1][l - 1]

    def f(self, i: int, j: int) -> float:
        return self.flow[i - 1][j - 1]

    def p(self, i: int, j: int) -> float:
        return self.penalty[i - 1][j - 1]

    @property
    def unbounded_capacity(self) -> bool:
        return self.capacity is None

    def trucks(self) -> range:
        return range(1, self.n + 1)

    def docks(self) -> range:
        return range(1, self.m + 1)

    def with_capacity(self, capacity: float | None) -> Instance:
        return replace(self, capacity=capacity)


def _check_count(name: str, value) -> None:
    """ValueError unless ``value`` is an int >= 0 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_seconds(name: str, value) -> None:
    """ValueError unless ``value`` is a number of seconds >= 0 (not a bool):
    NaN fails, ``inf`` passes, as in the CLI's time limits."""
    if not _is_number(value) or not value >= 0:
        raise ValueError(f"{name} must be a number of seconds >= 0, got {value!r}")


def _indices(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints: ValueError for a bool or any value that
    is not an integer (numpy integers pass), rather than truncating it."""
    values = tuple(values)
    if all(type(x) is int for x in values):  # the common case, and fast
        return values
    for x in values:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"a truck or dock index must be an integer, got {x!r}")
    return tuple(int(x) for x in values)


@dataclass(frozen=True)
class Solution:
    """A partial dock assignment plus selected transfers.

    ``dock[i-1]`` is the 1-based dock of truck i, or :data:`UNASSIGNED` (0).
    ``transfers`` holds (i, j, k, l) tuples, 1-based, canonically sorted; at
    most one (k, l) per ordered pair (i, j). Entries with i = j only occur in
    strict-literal (diagonal-included) workflows.
    """

    dock: tuple[int, ...]
    transfers: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dock", _indices(self.dock))
        transfers = [tuple(transfer) for transfer in self.transfers]
        if not all(type(x) is int for transfer in transfers for x in transfer):
            transfers = [_indices(transfer) for transfer in transfers]
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for (i, j, k, l) in transfers:
            if (i, j) in seen and seen[(i, j)] != (k, l):
                raise ValueError(
                    f"solution has two transfers for pair ({i},{j}): "
                    f"{seen[(i, j)]} and {(k, l)}"
                )
            seen[(i, j)] = (k, l)
        object.__setattr__(self, "transfers", tuple(sorted(set(transfers))))

    @classmethod
    def empty(cls, n: int) -> Solution:
        return cls(dock=(UNASSIGNED,) * n)

    def dock_of(self, i: int) -> int:
        """1-based dock of truck i, or 0 when unassigned."""
        return self.dock[i - 1]


def _dock_array(inst: Instance, dock) -> tuple[int, ...]:
    """The dock array of ``dock`` (a Solution or a sequence of 1-based docks,
    0 for unassigned), checked against ``inst``: ValueError unless it has n
    integer entries in 0..m and, for a Solution, every transfer names trucks
    in 1..n and docks in 1..m."""
    if isinstance(dock, Solution):
        y, transfers = dock.dock, dock.transfers
    else:
        y, transfers = _indices(dock), ()
    n, m = inst.n, inst.m
    if len(y) != n:
        raise ValueError(f"dock array docks {len(y)} trucks but the instance has {n}")
    for i, k in enumerate(y, start=1):
        if not 0 <= k <= m:
            raise ValueError(f"truck {i} has dock {k}, outside 0..{m}")
    for (i, j, k, l) in transfers:
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= m and 1 <= l <= m):
            raise ValueError(
                f"transfer ({i},{j},{k},{l}) is outside trucks 1..{n} or docks 1..{m}"
            )
    return y


@dataclass(frozen=True)
class ObjectiveBreakdown:
    transfer_cost_total: float
    penalty_total: float
    total: float
    fulfilled_pairs: int


def validation_issues(inst: Instance) -> list[ValidationIssue]:
    """All hard-invariant violations of an instance, deterministically ordered."""
    issues: list[ValidationIssue] = []
    n, m = inst.n, inst.m

    if n < 1 or m < 1:
        issues.append(
            ValidationIssue("shape_mismatch", (), f"n={n} and m={m} must be positive")
        )
        return issues

    def shape(name, rows, nrows, ncols):
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            issues.append(
                ValidationIssue(
                    "shape_mismatch",
                    (),
                    f"{name} must be {nrows}x{ncols}, got "
                    f"{len(rows)}x{[len(r) for r in rows]}",
                )
            )
            return False
        return True

    ok = True
    if len(inst.arrival) != n:
        issues.append(
            ValidationIssue("shape_mismatch", (), f"arrival must have length {n}")
        )
        ok = False
    if len(inst.departure) != n:
        issues.append(
            ValidationIssue("shape_mismatch", (), f"departure must have length {n}")
        )
        ok = False
    ok &= shape("transfer_time", inst.transfer_time, m, m)
    ok &= shape("transfer_cost", inst.transfer_cost, m, m)
    ok &= shape("flow", inst.flow, n, n)
    ok &= shape("penalty", inst.penalty, n, n)
    if not ok:
        return issues

    def finite(x, indices, where) -> bool:
        """True iff x is finite; otherwise a not_a_number (NaN) or
        infinite_number issue is recorded. A NaN passes every sign and window
        test below, and so may an infinite entry."""
        if math.isfinite(x):
            return True
        if math.isnan(x):
            issues.append(ValidationIssue("not_a_number", indices, f"{where} is NaN"))
        else:
            message = f"{where} = {x} is not finite"
            issues.append(ValidationIssue("infinite_number", indices, message))
        return False

    for name, rows in (
        ("transfer_time", inst.transfer_time),
        ("transfer_cost", inst.transfer_cost),
        ("flow", inst.flow),
        ("penalty", inst.penalty),
    ):
        for r, row in enumerate(rows):
            for s, x in enumerate(row):
                where = f"{name}[{r + 1}][{s + 1}]"
                if finite(x, (r + 1, s + 1), where) and x < -EPS:
                    message = f"{where} = {x} is negative"
                    issues.append(
                        ValidationIssue("negative_entry", (r + 1, s + 1), message)
                    )
    # a NaN capacity passes the positivity test, so finiteness comes first;
    # an unbounded capacity is None ("unbounded" in files), never inf
    if inst.capacity is not None and not math.isfinite(inst.capacity):
        issues.append(
            ValidationIssue(
                "nonfinite_capacity",
                (),
                f"capacity {inst.capacity} must be finite (use 'unbounded')",
            )
        )
    elif inst.capacity is not None and inst.capacity <= EPS:
        issues.append(
            ValidationIssue(
                "nonpositive_capacity", (), f"capacity {inst.capacity} must be positive"
            )
        )

    for name, times in (("arrival", inst.arrival), ("departure", inst.departure)):
        for i, x in enumerate(times, start=1):
            finite(x, (i,), f"{name}[{i}]")
    for i in range(1, n + 1):
        if inst.a(i) >= inst.d(i) - EPS:
            issues.append(
                ValidationIssue(
                    "window_inverted",
                    (i,),
                    f"truck {i}: arrival {inst.a(i)} is not strictly before "
                    f"departure {inst.d(i)}",
                )
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            if inst.f(i, j) > EPS and inst.d(j) < inst.a(i) - EPS:
                issues.append(
                    ValidationIssue(
                        "flow_vs_time",
                        (i, j),
                        f"flow[{i}][{j}] = {inst.f(i, j)} but truck {j} departs "
                        f"({inst.d(j)}) before truck {i} arrives ({inst.a(i)})",
                    )
                )
    return issues


def instance_flags(inst: Instance) -> list[str]:
    """Informational flags that are not errors."""
    flags = []
    if inst.n > inst.m:
        flags.append(f"over_constrained (n={inst.n} > m={inst.m})")
    return flags


def validate_instance(inst: Instance) -> Instance:
    """Return the instance unchanged iff all hard invariants hold.

    Raises :class:`InvalidInstanceError` carrying the full issue list
    otherwise. Informational conditions (n > m) are exposed separately via
    :func:`instance_flags`.
    """
    issues = validation_issues(inst)
    if issues:
        raise InvalidInstanceError(tuple(issues))
    return inst


def compute_xhat(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Precedence matrix, 0-based: xhat[i][j] = 1 iff d_i <= a_j (i != j).

    The comparison is non-strict with tolerance EPS; boundary equality
    (a truck arriving exactly when another departs) counts as precedence.
    """
    n, a, d = inst.n, inst.arrival, inst.departure
    return tuple(
        tuple([1 if (i != j and d[i] <= a[j] + EPS) else 0 for j in range(n)])
        for i in range(n)
    )


def event_times(inst: Instance) -> tuple[float, ...]:
    """The 2n arrival and departure instants, sorted ascending, duplicates
    retained; event r (1-based) is entry r - 1."""
    return tuple(sorted(inst.arrival + inst.departure))


def total_penalty_constant(inst: Instance, include_diagonal: bool = False) -> float:
    """Sum of p_ij * f_ij over pairs in scope: the objective when nothing ships."""
    return sum(
        inst.penalty[i][j] * inst.flow[i][j]
        for i in range(inst.n)
        for j in range(inst.n)
        if include_diagonal or i != j
    )


def format_number(value: float) -> str:
    """``value`` as printed output that parses back to the same float:
    integral values without ``.0``, every other value as its ``repr``."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)
