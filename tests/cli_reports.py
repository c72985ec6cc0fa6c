"""The pinned reports: the full stdout of the commands that print the note's
verdicts.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/cli_reports.py

It rewrites ``tests/data/cli_reports.txt``: for each command, a line
``$ crossdock <arguments>`` and then what the command prints, less its
``timing:`` and ``wall_time:`` lines. ``tests/test_cli_reports.py`` reruns
the commands through ``crossdock.cli.main`` and compares the text with that
file, and CI reruns the ``$`` lines with the installed ``crossdock`` script
and diffs the result against it. Paths are relative to the repository root.
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
)

_TIMING = ("timing:", "wall_time:")


def report(args) -> str:
    """The ``$`` line and the stdout of ``crossdock *args`` run from the
    repository root, without its timing lines."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(list(args))
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"crossdock {' '.join(args)} exited {code}")
    kept = [line for line in out.getvalue().splitlines() if not line.startswith(_TIMING)]
    return "".join(line + "\n" for line in [f"$ crossdock {' '.join(args)}", *kept])


def all_reports() -> str:
    return "".join(report(args) for args in COMMANDS)


def main() -> None:
    RECORD.write_text(all_reports())
    print(f"wrote {len(COMMANDS)} reports to {RECORD}")


if __name__ == "__main__":
    main()
