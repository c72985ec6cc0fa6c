import difflib
import math

import cli_reports
from crossdock.instance_io import generate, parse_instance, serialize_instance
from crossdock.model import EPS


def test_printed_reports_match_the_committed_file():
    # what each pinned command prints, less timing, with its stderr and a
    # nonzero exit code, against tests/data/cli_reports.txt; a change that
    # moves a report on purpose regenerates it with
    # `PYTHONPATH=src python tests/cli_reports.py`
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


def test_committed_inputs_are_what_they_stand_for():
    # the generated instance is what `crossdock gen --seed 0 --n 5 --m 2
    # --capacity-ratio 0.05` writes today, so a generator change cannot leave
    # the record checking a stale file
    data = cli_reports.ROOT / "tests" / "data"
    gen = (data / "gen-s0-n5-m2-r0.05.json").read_text()
    assert gen == serialize_instance(generate(0, 5, 2, capacity_ratio=0.05)) + "\n"
    # the boundary pair straddles the fit rule at capacity 1: the largest
    # float f with f - 1 <= EPS, and the next float up
    fits = parse_instance(data / "boundary_fits.json").flow[0][1]
    over = parse_instance(data / "boundary_over.json").flow[0][1]
    assert fits == 1.0000000009999999 and fits - 1 <= EPS
    assert over == 1.000000001 == math.nextafter(fits, math.inf)
    assert over - 1 > EPS
