"""Command-line surface.

Exit codes: 0 on success, 1 on infeasible `check` or invalid input files.
All output meant for scripting is line-oriented and stable; timing goes on
its own line.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import diagnosis, exact, lp_export, vns
from .formulations import Formulation, check_solution
from .instance_io import (
    generate,
    parse_instance,
    parse_solution,
    serialize_instance,
)
from .model import (
    format_number,
    instance_flags,
    validate_instance,
    validation_issues,
)
from .reproduce import render_report, reproduce_note

_MODELS = {f.value: f for f in Formulation}

#: The --capacity default, not a string so argparse never feeds it through
#: the type converter: keep the instance's own capacity.
_KEEP_CAPACITY = ("keep",)


def _capacity_arg(text: str):
    if text == "unbounded":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"capacity must be a number or 'unbounded', got {text!r}"
        )


def _number_arg(convert, ok, what: str):
    """An argparse type that parses with ``convert`` and accepts a value iff
    ``ok`` holds; text that does not parse counts as NaN, which fails every
    comparison and so every ``ok`` below."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value

    return parse


_time_limit_arg = _number_arg(
    float, lambda v: v >= 0, "time limit must be a number of seconds >= 0"
)
_count_arg = _number_arg(int, lambda v: v >= 1, "must be an integer >= 1")
_seed_arg = _number_arg(int, lambda v: v >= 0, "seed must be an integer >= 0")
_capacity_ratio_arg = _number_arg(
    float, lambda v: 0 < v < math.inf, "capacity ratio must be a finite number > 0"
)
_flow_density_arg = _number_arg(
    float, lambda v: 0 <= v <= 1, "flow density must be a number in [0, 1]"
)


def _load_instance(path: str, capacity=_KEEP_CAPACITY):
    inst = parse_instance(Path(path))
    if capacity is not _KEEP_CAPACITY:
        inst = inst.with_capacity(capacity)
    return validate_instance(inst)


def _print_result(result: exact.OptimizeResult) -> None:
    print(f"status: {result.status}")
    print(f"objective: {format_number(result.objective.total)}")
    print(f"  transfer_cost: {format_number(result.objective.transfer_cost_total)}")
    print(f"  penalty: {format_number(result.objective.penalty_total)}")
    print(f"  fulfilled_pairs: {result.objective.fulfilled_pairs}")
    print(f"proven_optimal: {str(result.proven_optimal).lower()}")
    print(f"nodes_explored: {result.nodes_explored}")
    print(f"bound_at_root: {format_number(result.bound_at_root)}")
    if result.rng_algorithm:
        print(f"rng_algorithm: {result.rng_algorithm}")
    print("dock: " + " ".join(str(k) for k in result.best.dock))
    for (i, j, k, l) in result.best.transfers:
        print(f"transfer: {i} {j} {k} {l}")
    print(f"wall_time: {result.wall_time:.3f}s")


def _cmd_validate(args) -> int:
    inst = parse_instance(Path(args.instance))
    issues = validation_issues(inst)
    if issues:
        for issue in issues:
            where = ",".join(map(str, issue.indices))
            print(f"error: {issue.code}({where}): {issue.message}")
        return 1
    print("OK")
    for flag in instance_flags(inst):
        print(f"flag: {flag}")
    return 0


def _cmd_solve(args) -> int:
    if args.method == "brute" and args.time_limit is not None:
        # brute force always enumerates every assignment
        args.usage_error("argument --time-limit: not allowed with --method brute")
    inst = _load_instance(args.instance, args.capacity)
    form = _MODELS[args.model]
    budget = exact.Budget(time_limit=args.time_limit)
    if args.method == "bnb":
        result = exact.branch_and_bound(inst, form, budget)
    elif args.method == "brute":
        result = exact.brute_force(inst, form)
    else:
        cfg = vns.VnsConfig(rng_seed=args.seed, time_budget=args.time_limit)
        result = vns.vns_solve(inst, form, cfg)
    _print_result(result)
    return 0


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    sol = parse_solution(Path(args.solution))
    report = check_solution(inst, sol, _MODELS[args.model])
    if report.feasible:
        print("FEASIBLE")
        return 0
    print("INFEASIBLE")
    for v in report.violations:
        lhs, rhs = format_number(v.lhs), format_number(v.rhs)
        print(f"violation: {v.constraint} lhs={lhs} rhs={rhs} :: {v.message}")
    return 1


def _cmd_compare(args) -> int:
    inst = _load_instance(args.instance, args.capacity)
    comparison = exact.compare_models(inst, exact.Budget(time_limit=args.time_limit))
    cd, rcd = comparison.cross_dock, comparison.r_cross_dock
    print(f"crossdock optimum: {format_number(cd.objective.total)} ({cd.status})")
    print(f"r-crossdock optimum: {format_number(rcd.objective.total)} ({rcd.status})")
    print(f"absolute gap: {format_number(comparison.absolute_gap)}")
    print(f"relative gap percent: {format_number(comparison.relative_gap_percent)}")
    print(exact.verdict_line(comparison.rcd_best_under_cd.feasible))
    print(f"wall_time: {cd.wall_time + rcd.wall_time:.3f}s")
    return 0


def _cmd_diagnose(args) -> int:
    inst = _load_instance(args.instance)
    sol = parse_solution(Path(args.solution))
    conflict = diagnosis.find_conflict(inst, sol, _MODELS[args.model])
    print("consistent" if conflict is None else conflict.render())
    return 0


def _cmd_export_lp(args) -> int:
    inst = _load_instance(args.instance)
    form = _MODELS[args.model]
    doc = lp_export.emit_lp(inst, form)
    out = Path(args.out) if args.out else Path(lp_export.lp_filename(inst.name, form))
    if out.is_dir():
        out = out / lp_export.lp_filename(inst.name, form)
    out.write_text(doc.text)
    print(f"wrote: {out}")
    print(f"variables: {doc.variable_count}")
    print(f"constraints: {doc.constraint_count}")
    print(f"objective_constant: {format_number(doc.objective_constant)}")
    return 0


def _cmd_gen(args) -> int:
    inst = generate(
        seed=args.seed,
        n=args.n,
        m=args.m,
        flow_density=args.flow_density,
        capacity_ratio=args.capacity_ratio,
    )
    Path(args.out).write_text(serialize_instance(inst) + "\n")
    print(f"wrote: {args.out}")
    return 0


def _cmd_reproduce_note(args) -> int:
    rep = reproduce_note(
        capacity="fixture" if args.capacity is _KEEP_CAPACITY else args.capacity,
        time_limit=args.time_limit,
    )
    print(render_report(rep))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdock",
        description=(
            "Crossdock truck-to-dock assignment: evaluate, solve, diagnose and "
            "export the CROSS-DOCK and R-CROSS-DOCK models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # one parent parser per shared argument; the positionals are parents too,
    # so a usage error names the missing arguments in the same order
    instance, solution, model, capacity, time_limit = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    instance.add_argument("instance")
    solution.add_argument("solution")
    model.add_argument("--model", choices=sorted(_MODELS), required=True)
    capacity.add_argument("--capacity", type=_capacity_arg, default=_KEEP_CAPACITY)
    time_limit.add_argument("--time-limit", type=_time_limit_arg, default=None)

    p = sub.add_parser("validate", help="validate an instance file", parents=[instance])
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "solve", help="solve an instance", parents=[instance, model, capacity, time_limit]
    )
    p.add_argument("--method", choices=["bnb", "brute", "vns"], default="bnb")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(func=_cmd_solve, usage_error=p.error)

    sub.add_parser(
        "check",
        help="check a solution file against a model",
        parents=[instance, solution, model],
    ).set_defaults(func=_cmd_check)

    sub.add_parser(
        "compare",
        help="solve both models and report the gap",
        parents=[instance, capacity, time_limit],
    ).set_defaults(func=_cmd_compare)

    sub.add_parser(
        "diagnose",
        help="explain why an assignment is infeasible",
        parents=[instance, solution, model],
    ).set_defaults(func=_cmd_diagnose)

    p = sub.add_parser(
        "export-lp", help="write an LP-format file", parents=[instance, model]
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("--n", type=_count_arg, default=4)
    p.add_argument("--m", type=_count_arg, default=2)
    p.add_argument("--flow-density", type=_flow_density_arg, default=1.0)
    p.add_argument("--capacity-ratio", type=_capacity_ratio_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "reproduce-note",
        help="re-run the published 9-truck/6-dock counterexample analysis",
        parents=[capacity],
    )
    p.add_argument(
        "--time-limit",
        type=_time_limit_arg,
        default=600.0,
        help="budget per exact solve in seconds (default 600)",
    )
    p.set_defaults(func=_cmd_reproduce_note)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
