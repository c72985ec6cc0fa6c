"""The pinned reports: what the console script prints for the commands that
show the note's verdicts, the capacity-boundary fit, generated capacity
conflicts and the fixture's VNS searches.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/cli_reports.py

It rewrites ``tests/data/cli_reports.txt``. Each command's record is, in
order:

* a line ``$ crossdock <arguments>``;
* what the command prints on stdout, less its ``timing:`` and
  ``wall_time:`` lines;
* each line it prints on stderr, as ``stderr: <line>``;
* ``exit: N`` when its exit code N is not 0.

``tests/test_cli_reports.py`` reruns the commands through
``crossdock.cli.main`` and compares the text with that file, and CI reruns
the ``$`` lines with the installed ``crossdock`` script and diffs the result
against it. Paths are relative to the repository root; the inputs that are
not fixtures live in ``tests/data/``.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

from crossdock.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "data" / "cli_reports.txt"

_FIXTURE = "src/crossdock/fixtures/miao_example.json"
_S_STAR = "src/crossdock/fixtures/s_star.json"
_S_PRIME = "src/crossdock/fixtures/s_prime_star.json"
#: trucks 1 and 2 of the fixture at dock 1: their windows overlap
_SHARED = "tests/data/shared_dock.json"
#: a dock array for 2 of the fixture's 9 trucks: an input error
_SHORT = "tests/data/short_dock.json"
#: what `crossdock gen --seed 0 --n 5 --m 2 --capacity-ratio 0.05` writes;
#: under CROSS-DOCK both dock arrays below fail on the buffer alone, the late
#: one with a single pair-forcing row, the early one with two rows that fit
#: apart but overload event 3 together
_GEN = "tests/data/gen-s0-n5-m2-r0.05.json"
_LATE = "tests/data/late_docks.json"
_EARLY = "tests/data/early_docks.json"
#: capacity 1 and f_12 buffered at events 1-3: f_12 is 1.0000000009999999,
#: the largest float with f_12 - 1 <= EPS, in the first instance and the next
#: float up in the second; check, diagnose and solve must draw the line
#: between them as the checker does
_FITS = "tests/data/boundary_fits.json"
_OVER = "tests/data/boundary_over.json"
#: docks [1, 2] with both forced transfers of the two boundary instances
_FORCED = "tests/data/boundary_forced.json"
#: a change in what VNS visits, repairs or keeps moves its objective or its
#: evaluation count (nodes_explored)
_VNS = ("solve", _FIXTURE, "--method", "vns", "--seed", "0")

COMMANDS = (
    ("reproduce-note",),
    ("reproduce-note", "--capacity", "100000"),
    ("compare", _FIXTURE),
    ("diagnose", _FIXTURE, _S_PRIME, "--model", "crossdock"),
    ("diagnose", _FIXTURE, _S_PRIME, "--model", "r-crossdock"),
    ("diagnose", _FIXTURE, _S_STAR, "--model", "crossdock"),
    ("diagnose", _FIXTURE, _S_STAR, "--model", "r-crossdock"),
    ("diagnose", _FIXTURE, _SHARED, "--model", "crossdock"),
    ("diagnose", _FIXTURE, _SHARED, "--model", "r-crossdock"),
    ("check", _FIXTURE, _S_STAR, "--model", "crossdock"),
    ("check", _FIXTURE, _S_PRIME, "--model", "r-crossdock"),
    ("check", _FIXTURE, _S_PRIME, "--model", "crossdock"),
    ("check", _FIXTURE, _SHORT, "--model", "crossdock"),
    ("diagnose", _GEN, _LATE, "--model", "crossdock"),
    ("diagnose", _GEN, _EARLY, "--model", "crossdock"),
    ("check", _FITS, _FORCED, "--model", "crossdock"),
    ("diagnose", _FITS, _FORCED, "--model", "crossdock"),
    ("solve", _FITS, "--model", "r-crossdock"),
    ("check", _OVER, _FORCED, "--model", "crossdock"),
    ("diagnose", _OVER, _FORCED, "--model", "crossdock"),
    ("solve", _OVER, "--model", "r-crossdock"),
    (*_VNS, "--model", "r-crossdock", "--capacity", "1000"),
    (*_VNS, "--model", "r-crossdock"),
    (*_VNS, "--model", "crossdock"),
)

_TIMING = ("timing:", "wall_time:")


def report(args) -> str:
    """The record of ``crossdock *args`` run from the repository root: the
    ``$`` line, stdout without its timing lines, stderr and a nonzero exit
    code."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(args))
    finally:
        os.chdir(cwd)
    lines = [f"$ crossdock {' '.join(args)}"]
    lines += [line for line in out.getvalue().splitlines() if not line.startswith(_TIMING)]
    lines += [f"stderr: {line}" for line in err.getvalue().splitlines()]
    if code != 0:
        lines.append(f"exit: {code}")
    return "".join(line + "\n" for line in lines)


def all_reports() -> str:
    return "".join(report(args) for args in COMMANDS)


def main() -> None:
    RECORD.write_text(all_reports())
    print(f"wrote {len(COMMANDS)} reports to {RECORD}")


if __name__ == "__main__":
    main()
