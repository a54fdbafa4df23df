"""Example counts for property tests that pin their own.

A ``settings(max_examples=N)`` pin overrides the loaded Hypothesis
profile, so without this helper the ``deep`` profile registered in
``tests/conftest.py`` would only re-randomise those tests, never search
them further. Each pin goes through :func:`examples` instead.
"""

from hypothesis import settings

#: How many times its pin a pinned test runs under the ``deep`` profile.
DEEP_FACTOR = 5


def examples(pin: int) -> int:
    """``max_examples`` for a test pinned at ``pin``: the pin itself under
    the ``default`` and ``ci`` profiles, ``DEEP_FACTOR`` times it under
    ``deep``. Read when the test module is imported, after the profile
    is loaded."""
    if settings.get_current_profile_name() == "deep":
        return pin * DEEP_FACTOR
    return pin
