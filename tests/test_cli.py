import dataclasses
import json
import math
from pathlib import Path

import pytest

from crossdock.cli import main
from crossdock.instance_io import (
    fixture_text,
    generate,
    parse_instance,
    serialize_instance,
    serialize_solution,
)
from crossdock.model import Solution
from crossdock.reproduce import render_report, reproduce_note

from conftest import tiny_two_truck


@pytest.fixture()
def fixture_paths(tmp_path):
    paths = {}
    for name in ("miao_example.json", "s_star.json", "s_prime_star.json"):
        p = tmp_path / name
        p.write_text(fixture_text(name))
        paths[name] = str(p)
    return paths


def test_validate_ok_with_flag(fixture_paths, capsys):
    code = main(["validate", fixture_paths["miao_example.json"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "OK"
    assert "over_constrained (n=9 > m=6)" in out


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1}')
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_rejects_an_infinite_penalty(tmp_path, capsys):
    # JSON's Infinity parses to inf, and an infinite penalty makes every
    # objective infinite, so no solver could rank the assignments
    inst = generate(0, 3, 2)
    penalty = [list(row) for row in inst.penalty]
    penalty[0][1] = math.inf
    path = tmp_path / "inf.json"
    path.write_text(serialize_instance(dataclasses.replace(inst, penalty=penalty)))
    assert "Infinity" in path.read_text()
    assert main(["validate", str(path)]) == 1
    assert "error: infinite_number(1,2)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key, line",
    [
        ("arrival", "error: infinite_number(1): arrival[1] = inf is not finite"),
        ("flow", "error: infinite_number(1,2): flow[1][2] = inf is not finite"),
        ("capacity", "error: nonfinite_capacity(): capacity inf must be finite "
                     "(use 'unbounded')"),
    ],
)
def test_an_integer_beyond_float_range_reads_as_infinite(tmp_path, capsys, key, line):
    # JSON reads 1e400 as inf but a 400-digit integer as an int, which
    # float() refuses with OverflowError; both spellings give one verdict
    doc = json.loads(serialize_instance(generate(0, 2, 1, capacity_ratio=0.5)))
    if key == "capacity":
        doc["capacity"] = "BIG"
    elif key == "arrival":
        doc["arrival"][0] = "BIG"
    else:
        doc["flow"][0][1] = "BIG"
    outputs = []
    for spelling in ("1" * 400, "1e400"):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', spelling))
        assert main(["validate", str(path)]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert line in outputs[0].splitlines()


@pytest.mark.parametrize("command", ["validate", "gen", "check"])
def test_a_directory_for_a_file_is_an_error_not_a_traceback(
    fixture_paths, tmp_path, capsys, command
):
    # reading or writing a directory raises IsADirectoryError, an OSError
    argv = {
        "validate": ["validate", str(tmp_path)],
        "gen": ["gen", "--seed", "0", "--out", str(tmp_path)],
        "check": ["check", fixture_paths["miao_example.json"], str(tmp_path),
                  "--model", "crossdock"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_reports_invariant_errors(tmp_path, capsys):
    doc = {
        "n": 1, "m": 1, "arrival": [1.0], "departure": [1.0],
        "transfer_time": [[0.0]], "transfer_cost": [[0.0]],
        "flow": [[0.0]], "penalty": [[0.0]], "capacity": "unbounded",
    }
    p = tmp_path / "inverted.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    assert "window_inverted" in capsys.readouterr().out


def test_check_infeasible_prints_conflicting_pair(fixture_paths, capsys):
    code = main([
        "check",
        fixture_paths["miao_example.json"],
        fixture_paths["s_prime_star.json"],
        "--model",
        "crossdock",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "INFEASIBLE"
    assert "PairForcing(1,2,1,2)" in out


def test_check_feasible_under_revised_model(fixture_paths, capsys):
    code = main([
        "check",
        fixture_paths["miao_example.json"],
        fixture_paths["s_prime_star.json"],
        "--model",
        "r-crossdock",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "FEASIBLE"


def test_check_rejects_a_self_transfer_without_a_traceback(
    fixture_paths, tmp_path, capsys
):
    # a self-transfer is out of scope unless self-flows are included, which
    # check_solution raises as a ValueError
    sol_path = tmp_path / "self.json"
    solution = {"dock": [1] + [0] * 8, "transfers": [[1, 1, 1, 1]]}
    sol_path.write_text(json.dumps(solution))
    code = main([
        "check",
        fixture_paths["miao_example.json"],
        str(sol_path),
        "--model",
        "crossdock",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: diagonal transfer (1,1)")


def test_check_and_diagnose_reject_solutions_outside_the_instance(
    fixture_paths, tmp_path, capsys
):
    # the fixture has 9 trucks and 6 docks; the transfer case fails only if
    # diagnose checks the file's transfers, not just its dock array
    cases = [
        ({"dock": [1, 2], "transfers": []}, "9"),
        ({"dock": [7] + [0] * 8, "transfers": []}, "0..6"),
        ({"dock": [1] + [0] * 8, "transfers": [[1, 10, 1, 1]]}, "1..9"),
    ]
    sol_path = tmp_path / "outside.json"
    for solution, named in cases:
        sol_path.write_text(json.dumps(solution))
        for command in ("check", "diagnose"):
            for model in ("crossdock", "r-crossdock"):
                code = main([
                    command,
                    fixture_paths["miao_example.json"],
                    str(sol_path),
                    "--model",
                    model,
                ])
                err = capsys.readouterr().err
                assert code == 1, (solution, command, model)
                assert len(err.splitlines()) == 1
                assert err.startswith("error: ") and named in err
                assert "Traceback" not in err


def test_check_prints_violation_values_exactly(tmp_path, capsys):
    # 1234567 buffered units against a capacity of 1: a 6-digit format would
    # print lhs=1.23457e+06
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(serialize_instance(tiny_two_truck(f12=1234567, capacity=1)))
    sol_path.write_text(
        serialize_solution(Solution(dock=(1, 1), transfers=((1, 2, 1, 1),)))
    )
    code = main(["check", str(inst_path), str(sol_path), "--model", "r-crossdock"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    capacity = [line for line in lines if line.startswith("violation: Capacity(")]
    assert capacity
    for line in capacity:
        assert float(line.split(" lhs=", 1)[1].split()[0]) == 1234567.0


def test_diagnose_prints_conflict(fixture_paths, capsys):
    code = main([
        "diagnose",
        fixture_paths["miao_example.json"],
        fixture_paths["s_prime_star.json"],
        "--model",
        "crossdock",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PairForcing(1,2,1,2)" in out
    assert "TimeFeasibility(1,2,1,2)" in out
    assert "-0.01" in out


def test_diagnose_consistent(fixture_paths, capsys):
    code = main([
        "diagnose",
        fixture_paths["miao_example.json"],
        fixture_paths["s_star.json"],
        "--model",
        "crossdock",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "consistent"


def test_solve_methods_agree_on_small_instance(tmp_path, capsys):
    gen_path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "4", "--n", "4", "--m", "2",
                 "--out", str(gen_path)]) == 0
    capsys.readouterr()
    objectives = {}
    for method in ("bnb", "brute", "vns"):
        code = main([
            "solve", str(gen_path), "--model", "r-crossdock",
            "--method", method, "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        (obj_line,) = [l for l in out.splitlines() if l.startswith("objective:")]
        objectives[method] = float(obj_line.split()[1])
        assert "wall_time:" in out
    assert objectives["bnb"] == objectives["brute"]
    assert objectives["vns"] >= objectives["bnb"] - 1e-9


def test_solve_capacity_override(fixture_paths, capsys):
    code = main([
        "solve", fixture_paths["miao_example.json"], "--model", "crossdock",
        "--method", "bnb", "--capacity", "100000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status:" in out


@pytest.mark.parametrize("capacity", ["nan", "inf"])
def test_solve_rejects_a_non_finite_capacity(fixture_paths, capsys, capacity):
    code = main([
        "solve", fixture_paths["miao_example.json"], "--model", "r-crossdock",
        "--capacity", capacity,
    ])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "soon"])
@pytest.mark.parametrize("command", ["solve", "compare", "reproduce-note"])
def test_time_limit_must_be_a_nonnegative_number(fixture_paths, capsys, command, value):
    # a NaN limit would never be exceeded, so the budget would be ignored
    argv = [command]
    if command != "reproduce-note":
        argv.append(fixture_paths["miao_example.json"])
    if command == "solve":
        argv += ["--model", "crossdock"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--time-limit", value])
    assert exit_info.value.code == 2
    assert "time limit must be a number of seconds >= 0" in capsys.readouterr().err


def test_gen_is_deterministic_and_valid(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--seed", "9", "--n", "3", "--m", "2", "--out", str(p1)])
    main(["gen", "--seed", "9", "--n", "3", "--m", "2", "--out", str(p2)])
    capsys.readouterr()
    assert p1.read_text() == p2.read_text()
    parse_instance(p1.read_text())


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--n", "0"),
        ("--m", "-2"),
        ("--m", "two"),
        ("--capacity-ratio", "nan"),
        ("--capacity-ratio", "inf"),
        ("--capacity-ratio", "-1"),
        ("--capacity-ratio", "0"),
        ("--flow-density", "nan"),
        ("--flow-density", "-0.5"),
        ("--flow-density", "1.5"),
    ],
)
def test_gen_rejects_bad_arguments(tmp_path, capsys, flag, value):
    # without the check, --n 0 and a NaN or infinite ratio end in a
    # traceback, --capacity-ratio -1 writes capacity 1 and --flow-density nan
    # writes no flow at all
    out = tmp_path / "inst.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--seed", "0", flag, value, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_seed_must_be_a_nonnegative_integer(fixture_paths, tmp_path, capsys, command):
    # numpy's generator rejects a negative seed with a traceback
    out = tmp_path / "inst.json"
    if command == "gen":
        argv = ["gen", "--seed", "-1", "--out", str(out)]
    else:
        argv = [
            "solve", fixture_paths["miao_example.json"], "--model", "crossdock",
            "--method", "vns", "--seed", "-1",
        ]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "argument --seed: seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_export_lp_writes_file(fixture_paths, tmp_path, capsys):
    out = tmp_path / "model.lp"
    code = main([
        "export-lp", fixture_paths["miao_example.json"],
        "--model", "crossdock", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "variables: 2646" in printed
    assert out.exists()
    assert out.read_text().startswith("\\ miao_example__crossdock.lp")


def test_export_lp_default_name(fixture_paths, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "export-lp", fixture_paths["miao_example.json"], "--model", "r-crossdock",
    ])
    assert code == 0
    assert Path("miao_example__r-crossdock.lp").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, written",
    [
        ("x\nMaximize\n obj: y_1_1\nfoo", "x_Maximize__obj__y_1_1_foo__crossdock.lp"),
        ("../escaped", ".._escaped__crossdock.lp"),
    ],
    ids=["line-breaks", "parent-directory"],
)
def test_export_lp_default_name_keeps_a_hostile_name_in_one_file(
    tmp_path, capsys, monkeypatch, name, written
):
    # a name with line breaks must not add LP sections to the header, and a
    # name with a path separator must not write outside the working directory
    inst = dataclasses.replace(generate(0, 3, 2), name=name)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["export-lp", str(path), "--model", "crossdock"]) == 0
    capsys.readouterr()
    assert [p.name for p in work.iterdir()] == [written]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "work"]
    lines = (work / written).read_text().splitlines()
    assert lines[0] == f"\\ {written}"
    header = lines[: lines.index("Minimize")]
    assert len(header) == 5 and all(line.startswith("\\ ") for line in header)


def test_compare_reports_gap(fixture_paths, capsys):
    code = main(["compare", fixture_paths["miao_example.json"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "crossdock optimum:" in out
    assert "r-crossdock optimum:" in out
    assert "relative gap percent:" in out
    assert "INFEASIBLE" in out
    printed = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(printed["crossdock optimum"].split()[0]) == 1_584_704.0
    assert float(printed["r-crossdock optimum"].split()[0]) == 1_349_910.0
    assert float(printed["absolute gap"]) == 1_584_704.0 - 1_349_910.0


def test_solve_prints_the_objective_exactly(fixture_paths, capsys):
    code = main([
        "solve", fixture_paths["miao_example.json"], "--model", "r-crossdock",
    ])
    assert code == 0
    printed = dict(
        line.strip().split(": ", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert printed["objective"] == "1349910"
    assert float(printed["objective"]) == 1_349_910.0
    assert float(printed["transfer_cost"]) + float(printed["penalty"]) == 1_349_910.0


def test_reproduce_note_smoke(capsys):
    code = main(["reproduce-note"])
    assert code == 0
    out = capsys.readouterr().out
    assert "published 316951" in out
    assert "published 11" in out
    assert "published 45.45" in out
    assert "minimal conflict set: PairForcing(1,2,1,2), TimeFeasibility(1,2,1,2)" in out
    assert "d_2 - a_1 - t_1_2 = -0.01 < 0" in out
    assert "default (self-flows excluded)" in out
    assert "strict-literal (self-flows included)" in out


def test_reproduce_note_takes_a_capacity(capsys):
    # the one --capacity default sentinel keeps the fixture's capacity; a
    # number replaces it
    assert main(["reproduce-note", "--capacity", "100000", "--time-limit", "0"]) == 0
    assert "capacity: 100000" in capsys.readouterr().out


def test_reproduce_note_prints_no_margin_outside_the_conflict():
    # at capacity 100 the s'* assignment fails on the buffer, not on the time
    # row of (1,2,1,2), so no time margin belongs in the report
    text = render_report(reproduce_note(capacity=100, time_limit=0))
    assert "minimal conflict set: PairForcing(1,2,1,2), Capacity(1)" in text
    assert not [line for line in text.splitlines() if line.startswith("margin d_")]


def test_solve_brute_guard_exits_nonzero(fixture_paths, capsys):
    code = main([
        "solve", fixture_paths["miao_example.json"],
        "--model", "crossdock", "--method", "brute",
    ])
    assert code == 1
    assert "instance_too_large" in capsys.readouterr().err


def test_solve_brute_rejects_a_time_limit(tmp_path, capsys):
    # brute force runs to completion, so a limit it cannot honour is a usage
    # error rather than an "optimal" answer that ignored it
    path = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--n", "6", "--m", "2", "--out", str(path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([
            "solve", str(path), "--model", "r-crossdock", "--method", "brute",
            "--time-limit", "0",
        ])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --time-limit: not allowed with --method brute" in captured.err
    assert captured.out == ""


def test_gen_rejects_a_ratio_that_overflows_the_capacity(tmp_path, capsys):
    # 1e308 passes the argument check (0 < ratio < inf), but ratio times the
    # total flow is inf
    out = tmp_path / "inst.json"
    code = main(["gen", "--seed", "0", "--capacity-ratio", "1e308", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: capacity ratio 1e+308 gives")
    assert not out.exists()


def test_reproduce_note_is_deterministic_modulo_timing(capsys):
    main(["reproduce-note"])
    first = capsys.readouterr().out
    main(["reproduce-note"])
    second = capsys.readouterr().out
    strip = lambda text: [
        l for l in text.splitlines() if not l.startswith("timing")
    ]
    assert strip(first) == strip(second)
