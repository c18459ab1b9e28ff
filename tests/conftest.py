import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# property tests draw the same examples on every run
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.load_profile("tier1")
