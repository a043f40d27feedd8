"""Shared test configuration: one Hypothesis profile for every property test.

Property tests run derandomized, with no example database and no deadline, so
a run is reproducible and its outcome does not depend on the machine's speed;
each test sets only its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("umbralqm", deadline=None, derandomize=True, database=None)
settings.load_profile("umbralqm")
