"""Shared test set-up: a reproducible hypothesis profile, loaded by default.

Examples are derived from each test's source rather than a random seed, and
no per-example deadline applies, so property tests give the same verdict on
every run and on a slow or busy host.
"""

from hypothesis import settings

settings.register_profile("fqpencil", derandomize=True, deadline=None,
                          max_examples=30)
settings.load_profile("fqpencil")
