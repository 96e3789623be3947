import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")
