import math

import pytest
from hypothesis import given, strategies as st

from spinszilard.combinatorics import binomial, bose_state_count, log_binomial


def test_binomial_edges():
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 300), st.integers(0, 300))
def test_binomial_matches_math_comb(a, b):
    expected = math.comb(a, b) if 0 <= b <= a else 0
    assert binomial(a, b) == expected


@given(st.integers(0, 400))
def test_log_binomial_agrees_with_exact(a):
    for b in {0, a // 3, a // 2, a}:
        exact = math.log(math.comb(a, b))
        assert log_binomial(a, b) == pytest.approx(exact, abs=1e-9)


def test_log_binomial_domain():
    with pytest.raises(ValueError):
        log_binomial(3, 4)
    with pytest.raises(ValueError):
        log_binomial(3, -1)


def test_bose_state_count():
    # g modes, a particles: C(g+a-1, a)
    assert bose_state_count(1, 5) == 1
    assert bose_state_count(3, 2) == 6
    assert bose_state_count(4, 0) == 1
    with pytest.raises(ValueError):
        bose_state_count(0, 1)
    with pytest.raises(ValueError):
        bose_state_count(2, -1)


@pytest.mark.parametrize("u", range(1, 21))
def test_vandermonde_closure(u):
    """sum_p C(2u,p) C(2u,k-p) = C(4u,k): the left-right split is exhaustive."""
    for k in range(0, 4 * u + 1, max(1, u)):
        total = sum(binomial(2 * u, p) * binomial(2 * u, k - p) for p in range(k + 1))
        assert total == binomial(4 * u, k)


@pytest.mark.parametrize("s", [0, 1, 2, 5, 10])
@pytest.mark.parametrize("N", [1, 2, 7, 40])
def test_boson_split_closure(s, N):
    """sum_m C(m+2s,2s) C(N-m+2s,2s) = C(N+4s+1,4s+1)."""
    total = sum(
        binomial(m + 2 * s, 2 * s) * binomial(N - m + 2 * s, 2 * s) for m in range(N + 1)
    )
    assert total == binomial(N + 4 * s + 1, 4 * s + 1)
