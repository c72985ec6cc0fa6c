import itertools

import differential

SHOWN = 5


def test_solver_outputs_match_the_committed_differential_record():
    # every solver output on the grid of tests/differential.py, against the
    # committed record; a change that moves outputs on purpose regenerates it
    # with `PYTHONPATH=src python tests/differential.py`
    expected = differential.RECORD.read_text().splitlines()
    got = list(differential.all_records())
    moved = [
        (number, old, new)
        for number, (old, new) in enumerate(
            itertools.zip_longest(expected, got, fillvalue="<none>"), start=1
        )
        if old != new
    ]
    report = "".join(
        f"\nline {number}:\n  recorded {old}\n  now      {new}"
        for number, old, new in moved[:SHOWN]
    )
    assert not moved, f"{len(moved)} of {len(expected)} records moved:{report}"
