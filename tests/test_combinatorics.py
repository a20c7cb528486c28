import math

import pytest
from hypothesis import example, given, strategies as st

from spinszilard.combinatorics import binomial_diagonal, binomial_row


@st.composite
def row_runs(draw):
    """(n, b, count) of a run C(n, b) .. C(n, b + count - 1) that stays inside row n."""
    n = draw(st.integers(0, 300))
    b = draw(st.integers(0, n))
    return n, b, draw(st.integers(0, n - b + 1))


@given(row_runs())
@example((7, 3, 0))
@example((7, 3, 1))
@example((9, 0, 10))  # the whole row: starts at b = 0 and ends at b = n
@example((12, 5, 8))  # ends at b = n
def test_binomial_row_matches_math_comb(run):
    n, b, count = run
    assert binomial_row(n, b, count) == [math.comb(n, j) for j in range(b, b + count)]


@given(st.integers(0, 300).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, a))),
       st.integers(0, 300))
@example((7, 3), 0)
@example((7, 3), 1)
@example((0, 0), 40)  # starts at b = 0
@example((250, 250), 50)  # C(a, a) = 1 all the way down
def test_binomial_diagonal_matches_math_comb(start, count):
    a, b = start
    assert binomial_diagonal(a, b, count) == [math.comb(a + j, b + j) for j in range(count)]


@pytest.mark.parametrize("n,b,count", [(5, -1, 2), (5, 3, 4), (5, 0, -1)])
def test_binomial_row_out_of_range(n, b, count):
    with pytest.raises(ValueError):
        binomial_row(n, b, count)


@pytest.mark.parametrize("a,b,count", [(3, 4, 1), (3, -1, 1), (3, 1, -1)])
def test_binomial_diagonal_out_of_range(a, b, count):
    with pytest.raises(ValueError):
        binomial_diagonal(a, b, count)


@pytest.mark.parametrize("u", range(1, 21))
def test_vandermonde_closure(u):
    """sum_p C(2u,p) C(2u,k-p) = C(4u,k): the left-right split is exhaustive."""
    for k in range(0, 4 * u + 1, max(1, u)):
        total = sum(math.comb(2 * u, p) * math.comb(2 * u, k - p) for p in range(k + 1))
        assert total == math.comb(4 * u, k)


@pytest.mark.parametrize("s", [0, 1, 2, 5, 10])
@pytest.mark.parametrize("N", [1, 2, 7, 40])
def test_boson_split_closure(s, N):
    """sum_m C(m+2s,2s) C(N-m+2s,2s) = C(N+4s+1,4s+1)."""
    total = sum(
        math.comb(m + 2 * s, 2 * s) * math.comb(N - m + 2 * s, 2 * s) for m in range(N + 1)
    )
    assert total == math.comb(N + 4 * s + 1, 4 * s + 1)
