"""Hypothesis profiles for the test suite.

Tier-1 runs hypothesis's ``default`` profile.  Properties that search
concurrent cache schedules (``tests/cache/test_cache_invariants.py``) take
their example budget from ``schedules`` there, and from ``chaos`` when a run
passes ``--hypothesis-profile=chaos``, as CI's chaos-smoke job does for
``tests/cache``.
"""

from hypothesis import settings

settings.register_profile("schedules", max_examples=25)
settings.register_profile("chaos", max_examples=200)


def schedule_budget() -> settings:
    """The example budget of a schedule search under the loaded profile."""
    chaos = settings.get_current_profile_name() == "chaos"
    return settings.get_profile("chaos" if chaos else "schedules")
