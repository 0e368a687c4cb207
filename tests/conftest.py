"""Session-wide test configuration."""

import pytest

# Tests that use these fixtures wait on the desk-scale four-chain HMC fits of a
# four-year series, which take tens of minutes between them. They carry the
# ``desk_fit`` marker, so ``pytest -m "not desk_fit"`` leaves them out, and they
# run after every other test, so a run that is cut short still reports all the rest.
_DESK_FIT_FIXTURES = frozenset({"four_fit", "two_fit"})


def pytest_collection_modifyitems(items):
    def waits_on_fit(item):
        return not _DESK_FIT_FIXTURES.isdisjoint(getattr(item, "fixturenames", ()))

    for item in items:
        if waits_on_fit(item):
            item.add_marker(pytest.mark.desk_fit)
    items[:] = [it for it in items if not waits_on_fit(it)] + [it for it in items if waits_on_fit(it)]
