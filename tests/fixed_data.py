"""A stand-in for ``st.data()`` in an explicit hypothesis ``@example``."""

import itertools


class FixedData:
    """Answers each ``draw`` with the next of the given values, in order.

    The values cycle, so a test that draws all of them each run (as when
    hypothesis runs a failing example again to report it) sees them afresh.
    """

    def __init__(self, *values):
        self._values = itertools.cycle(values)

    def draw(self, strategy, label=None):
        return next(self._values)
