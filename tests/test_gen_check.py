"""Exit-0 gen reports of the argv corpus re-checked by ``report_check.check_gen``.

The corpus is replayed once a session (the ``corpus_replay`` fixture of
``conftest.py``); this test reads the gen share of that replay.
"""

from test_argv_corpus import CHECKED


def test_corpus_gen_reports_recheck(corpus_replay):
    _, wrong, checked = corpus_replay
    assert checked["gen"] == CHECKED["gen"]
    assert [w for w in wrong if w[0].split()[0] == "gen"] == []
