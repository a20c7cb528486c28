"""Runs of exact binomial coefficients.

Every probability in this package is a ratio of binomial coefficients.
They are kept as exact integers: ratios are divided at the last step
(Python's int/int division is correctly rounded) and logarithms are taken
of the integers themselves, so no intermediate float can overflow.

The counts of a table come as runs of consecutive binomials: one ``math.comb``
seeds each run and every further element is stepped from the one before by an
exact integer multiply, then floor divide. Both steps rest on
C(a, b) (a - b) = C(a, b + 1) (b + 1) and C(a, b) (a + 1) = C(a + 1, b + 1) (b + 1),
so the division leaves no remainder and each element is the same integer
``math.comb`` gives, at the cost of a small-integer product instead of a
fresh comb of a number hundreds of digits long.
"""
from __future__ import annotations

import math


def binomial_row(n: int, b: int, count: int) -> list[int]:
    """C(n, b), C(n, b + 1), ...: ``count`` binomials along row n, for 0 <= b <= b + count - 1 <= n.

    Each element after the first is C(n, j + 1) = C(n, j) (n - j) // (j + 1).
    """
    if count < 0 or b < 0 or b + count - 1 > n:
        raise ValueError(f"row run out of range: n={n}, b={b}, count={count}")
    if count == 0:
        return []
    value = math.comb(n, b)
    run = [value]
    for j in range(b, b + count - 1):
        value = value * (n - j) // (j + 1)
        run.append(value)
    return run


def binomial_diagonal(a: int, b: int, count: int) -> list[int]:
    """C(a, b), C(a + 1, b + 1), ...: ``count`` binomials down a diagonal, for 0 <= b <= a.

    Each element after the first is C(a + j, b + j) = C(a + j - 1, b + j - 1) (a + j) // (b + j).
    """
    if count < 0 or not 0 <= b <= a:
        raise ValueError(f"diagonal run out of range: a={a}, b={b}, count={count}")
    if count == 0:
        return []
    value = math.comb(a, b)
    run = [value]
    for j in range(1, count):
        value = value * (a + j) // (b + j)
        run.append(value)
    return run

