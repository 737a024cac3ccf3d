"""Shared test settings: the Hypothesis profiles of the property tests.

"ci" is derandomized (every run draws the same examples), bounded in
examples and free of deadlines, so a property test neither flakes nor
fails on a slow machine. It is the default; select "dev" with
``--hypothesis-profile=dev`` to draw fresh random examples.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=20,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=100, deadline=None)
settings.load_profile("ci")
