"""The checked-in kernel census is current (``python -m tests.census``)."""

from tests import census


def test_the_census_re_derives_to_the_checked_in_file():
    changes = census.diff(census.GOLDEN.read_text(),
                          census.render(census.derive()))
    assert not changes, (
        "kernel census drifted; if intended, run "
        "`PYTHONPATH=src python -m tests.census --update` and list the "
        "diff in CHANGES.md:\n" + changes)


def test_the_summary_counts_hashes_apart_from_outcomes():
    old = {"totals": {"kernels": 2, "lowered": 1},
           "origins": {"a": {"k": {"verdict": "lowered", "modules": ["1", "2"]},
                             "j": {"verdict": "call to 'f'", "modules": ["3"]},
                             "host:main": {"modules": ["4"]}}}}
    new = {"totals": {"kernels": 2, "lowered": 1},
           "origins": {"a": {"k": {"verdict": "lowered", "modules": ["1", "5"]},
                             "j": {"verdict": "call to 'f'", "modules": ["6"]},
                             "host:main": {"modules": ["4"]}}}}
    assert census.summary(old, new) == (
        "census: 2 module hashes, 0 totals, 0 verdicts, 0 reasons changed")
    new["origins"]["a"]["j"]["verdict"] = "address of a local"
    new["origins"]["a"]["k"]["verdict"] = "barrier in a loop"
    new["totals"]["lowered"] = 0
    assert census.summary(old, new) == (
        "census: 2 module hashes, 1 totals, 1 verdicts, 1 reasons changed")
