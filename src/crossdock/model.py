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


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(where: str, value, least: float = -math.inf) -> int:
    """``value`` as an int: ValueError naming ``where`` unless it is an
    integer >= ``least`` (numpy integers pass, a bool fails)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        bound = f" >= {least}" if least > -math.inf else ""
        raise ValueError(f"'{where}' must be an integer{bound}, got {value!r}")
    return int(value)


def _real(where: str, value) -> float:
    """``float(value)``: ValueError naming ``where`` unless ``value`` is a real
    number (a bool or a str is not); an integer beyond float range reads as
    the infinity of its sign, as the same number written with an exponent does."""
    if not _is_number(value):
        raise ValueError(f"'{where}' must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reals(where: str, values, length: int) -> tuple[float, ...]:
    """``values``, a list or tuple of ``length`` real numbers, as floats;
    entry r is labelled ``where[r]``, 1-based."""
    if not isinstance(values, (list, tuple)) or len(values) != length:
        raise ValueError(f"'{where}' must be a list of {length} numbers")
    if all(type(x) is float for x in values):  # the common case, and fast
        return tuple(values)
    return tuple(_real(f"{where}[{r}]", x) for r, x in enumerate(values, start=1))


def _square(where: str, rows, size: int) -> tuple[tuple[float, ...], ...]:
    """``rows`` as ``size`` rows, each read by :func:`_reals` as ``where[r]``."""
    if not isinstance(rows, (list, tuple)) or len(rows) != size:
        raise ValueError(f"'{where}' must be a {size}x{size} matrix")
    return tuple(_reals(f"{where}[{r}]", row, size) for r, row in enumerate(rows, start=1))


@dataclass(frozen=True)
class Instance:
    """An immutable truck-dock assignment instance.

    ``capacity`` is either a positive real or ``None`` for the unbounded
    sentinel ("unbounded" in files), which the compiled rules and the checker
    read as ``math.inf``.

    Construction raises ValueError naming the field (``'flow[2][2]' must be
    a number``) unless n and m are integers >= 1, arrival and departure hold
    n real numbers, transfer_time and transfer_cost m x m and flow and penalty
    n x n (lists or tuples), capacity is None or a real number, name is a str
    and seed None or an integer. A bool or a str is refused, never coerced.
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
        n, m = _integer("n", self.n, 1), _integer("m", self.m, 1)
        fields = {
            "n": n,
            "m": m,
            "arrival": _reals("arrival", self.arrival, n),
            "departure": _reals("departure", self.departure, n),
            "transfer_time": _square("transfer_time", self.transfer_time, m),
            "transfer_cost": _square("transfer_cost", self.transfer_cost, m),
            "flow": _square("flow", self.flow, n),
            "penalty": _square("penalty", self.penalty, n),
        }
        if self.capacity is not None:
            fields["capacity"] = _real("capacity", self.capacity)
        if not isinstance(self.name, str):
            raise ValueError("'name' must be a string")
        if self.seed is not None:
            fields["seed"] = _integer("seed", self.seed)
        for attr, value in fields.items():
            object.__setattr__(self, attr, value)

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


def _check_seconds(name: str, value) -> None:
    """ValueError unless ``value`` is a number of seconds >= 0 (not a bool):
    NaN fails, ``inf`` passes, as in the CLI's time limits."""
    if not _is_number(value) or not value >= 0:
        raise ValueError(f"{name} must be a number of seconds >= 0, got {value!r}")


def _sequence(values) -> tuple:
    """``values`` as a tuple: ValueError for a str, a dict or a value that is
    not iterable, none of which is read as a sequence."""
    if isinstance(values, (str, dict)) or not hasattr(values, "__iter__"):
        raise ValueError(f"expected a sequence, got {values!r}")
    return tuple(values)


def _indices(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints: ValueError for a non-sequence, a bool or
    any entry that is not an integer (numpy integers pass), never truncated."""
    values = _sequence(values)
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

    Construction raises ValueError unless the docks, the transfers and each
    transfer are sequences (a str or a dict is not) of integers (numpy's pass;
    a bool or a float is refused, never truncated), every transfer has four
    indices and no pair has two.
    """

    dock: tuple[int, ...]
    transfers: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dock", _indices(self.dock))
        transfers = [_indices(transfer) for transfer in _sequence(self.transfers)]
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for transfer in transfers:
            if len(transfer) != 4:
                raise ValueError(f"transfer {transfer} must have four indices (i, j, k, l)")
            i, j, k, l = transfer
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
    """All hard-invariant violations of an instance's values, deterministically
    ordered; types and shapes are checked when the :class:`Instance` is built."""
    issues: list[ValidationIssue] = []
    n = inst.n

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
