"""The checked-in kernel census is current (``python -m tests.census``)."""

from tests import census


def test_the_census_re_derives_to_the_checked_in_file():
    changes = census.diff(census.GOLDEN.read_text(),
                          census.render(census.derive()))
    assert not changes, (
        "kernel census drifted; if intended, run "
        "`PYTHONPATH=src python -m tests.census --update` and list the "
        "diff in CHANGES.md:\n" + changes)
