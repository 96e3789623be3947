import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def corpus_replay(tmp_path_factory):
    """test_argv_corpus.replay of the whole argv corpus, run once for every test that
    reads it."""
    from test_argv_corpus import replay
    from test_cli_fuzz import write_files

    d = tmp_path_factory.mktemp("corpus")
    write_files(d)
    return replay(d)
