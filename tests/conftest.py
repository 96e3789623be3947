import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


@pytest.fixture
def first_nominee(monkeypatch):
    """Make np.argmax and np.argmin nominate the first entry (of each row, given an axis).

    The anchored estimators only take a float nominee from them; a wrong one
    must still end in the exact extremum.
    """
    def first(x, axis=None):
        return 0 if axis is None else np.zeros(np.delete(np.shape(x), axis), dtype=np.intp)

    monkeypatch.setattr(np, "argmax", first)
    monkeypatch.setattr(np, "argmin", first)
