"""Exact binomial coefficients and bosonic state counts.

Every probability in this package is a ratio of binomial coefficients.
They are kept as exact integers: ratios are divided at the last step
(Python's int/int division is correctly rounded) and logarithms are taken
of the integers themselves, so no intermediate float can overflow.
"""
from __future__ import annotations

import math


def binomial(a: int, b: int) -> int:
    """C(a, b) exactly; 0 for b outside [0, a] (the empty-sum convention)."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def bose_state_count(degeneracy: int, particles: int) -> int:
    """Microstates of ``particles`` indistinguishable bosons in ``degeneracy`` modes."""
    if degeneracy < 1:
        raise ValueError(f"degeneracy must be >= 1, got {degeneracy}")
    if particles < 0:
        raise ValueError(f"particle count must be >= 0, got {particles}")
    return binomial(degeneracy + particles - 1, particles)
