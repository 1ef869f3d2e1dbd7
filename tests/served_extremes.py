"""The certificate identity of
test_solver.test_a_random_certificate_satisfies_its_identity at the two
served extremes that take too long for tier-1: (s, n) = (3, 800) and
(400, 10), T = 1 + x/3.  Tier-1 collects test_*.py only, so this file
runs when it is named:

    PYTHONPATH=src python -m pytest -q tests/served_extremes.py
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from test_solver import _IDENTITY_K_CAP, _served_identity_holds


# At n = 800 the series start at K = 4n + 16 = 3216 terms, past
# _IDENTITY_K_CAP, so that cap would return False without summing.
@pytest.mark.parametrize("s, n, cap", [(3, 800, 8192), (400, 10, _IDENTITY_K_CAP)])
def test_a_certificate_at_a_slow_served_extreme_satisfies_its_identity(s, n, cap):
    # pytest.fail, not assert: `python -O` strips an assert in a file that
    # is not named test_*.py (tests/test_no_asserts.py).
    if not _served_identity_holds(s, n, [1, Fraction(1, 3)], cap):
        pytest.fail(f"s = {s}, n = {n}: no K up to {cap} narrows the residual to theta 10^-8")
