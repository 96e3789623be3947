"""Exit-0 bohr reports of the argv corpus re-checked by ``report_check.check_bohr``.

The corpus is replayed once a session (the ``corpus_replay`` fixture of
``conftest.py``); this test reads the bohr share of that replay, a ``--search``
counted apart.
"""

from test_argv_corpus import CHECKED


def test_corpus_bohr_reports_recheck(corpus_replay):
    _, wrong, checked = corpus_replay
    assert checked["bohr"] == CHECKED["bohr"]
    assert checked["bohr --search"] == CHECKED["bohr --search"]
    assert [w for w in wrong if w[0].split()[0] == "bohr"] == []
