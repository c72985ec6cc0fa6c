import difflib

import cli_reports


def test_printed_reports_match_the_committed_file():
    # the full stdout of reproduce-note, compare and diagnose, less timing,
    # against tests/data/cli_reports.txt; a change that moves a report on
    # purpose regenerates it with `PYTHONPATH=src python tests/cli_reports.py`
    expected = cli_reports.RECORD.read_text()
    got = cli_reports.all_reports()
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            got.splitlines(keepends=True),
            "recorded",
            "now",
        )
    )
    assert got == expected, diff
