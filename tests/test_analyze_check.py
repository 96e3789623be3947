"""Exit-0 analyze reports of the argv corpus re-checked by ``report_check.check_analyze``.

The corpus is replayed once a session (the ``corpus_replay`` fixture of
``conftest.py``); this test reads the analyze share of that replay.
"""

from test_argv_corpus import CHECKED


def test_corpus_analyze_reports_recheck(corpus_replay):
    _, wrong, checked = corpus_replay
    assert checked["analyze"] == CHECKED["analyze"]
    assert [w for w in wrong if w[0].split()[0] == "analyze"] == []
