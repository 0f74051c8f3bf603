"""Integer-layer tests: sieves, factorization, primality, CRT, unit groups."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from multsum import (
    CapacityError,
    InfeasibleError,
    crt_solve,
    euler_phi,
    factor,
    is_prime,
    primes_upto,
    squarefree_block,
    unit_group,
)
from multsum.arith import FACTOR_LIMIT, TRIAL_BOUND

import oracles


def test_primes_upto_matches_sympy():
    for n in [*range(31), 97, 4096, 10**4, 10**6]:
        got = primes_upto(n)
        assert got.dtype == np.int64, n
        assert got.tolist() == list(sympy.primerange(2, n + 1)), n


def test_factorize_reconstructs():
    for n in list(range(1, 20_001)) + [99991, 2**16, 3**9 * 5]:
        fac = factor(n)
        assert fac == oracles.trial_factorize(n), n
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n


def test_is_prime_matches_sympy_small():
    for n in range(-3, 20_001):
        assert is_prime(n) == sympy.isprime(n), n


def _sympy_factor(n: int) -> list[tuple[int, int]]:
    return sorted((int(p), int(e)) for p, e in sympy.factorint(n).items())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, FACTOR_LIMIT))
def test_factor_matches_sympy(n):
    fac = factor(n)
    assert fac == _sympy_factor(n)
    assert all(type(p) is int and type(e) is int for p, e in fac)


# primes just above 1e6 and between 1e6 and 2e9: cofactors past the cube root
BIG_PRIMES = [1_000_003, 1_000_033, 1_000_037]
SEMI_PRIMES = [1_000_003, 15_485_863, 982_451_653, 1_999_999_973]


def test_factor_cofactor_shapes():
    p, q, r = BIG_PRIMES
    cases = [p**3, p * p * q, p * q * q, p * q * r, 2**61 - 1]
    cases += [a * b for i, a in enumerate(SEMI_PRIMES) for b in SEMI_PRIMES[i + 1 :]]
    cases += [a * a for a in SEMI_PRIMES]
    for n in cases:
        assert n <= FACTOR_LIMIT
        assert factor(n) == _sympy_factor(n), n
    assert factor(2**61 - 1) == [(2**61 - 1, 1)]


def test_factor_and_is_prime_bounds():
    assert TRIAL_BOUND == 1587401
    assert TRIAL_BOUND**3 <= FACTOR_LIMIT < (TRIAL_BOUND + 1) ** 3
    for n in (0, -5, FACTOR_LIMIT + 1):
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            factor(n)
    with pytest.raises(ValueError, match="2\\^64"):
        is_prime(2**64)
    assert is_prime(2**64 - 59)  # the largest prime below 2^64


def test_squarefree_block_matches_naive():
    base = primes_upto(400)
    blk = squarefree_block(1, 600, base)
    for i, n in enumerate(range(1, 600)):
        assert bool(blk[i]) == oracles.naive_squarefree(n), n


def test_crt_examples():
    assert crt_solve([(1, 3), (2, 5)]) == (7, 15)
    # brute force over residues mod 900 is the authority here
    want = oracles.brute_crt([(1, 4), (2, 9), (3, 25)], 900)
    assert crt_solve([(1, 4), (2, 9), (3, 25)]) == (want, 900) == (353, 900)
    assert crt_solve([(0, 1)]) == (0, 1)


def test_crt_errors():
    with pytest.raises(InfeasibleError):
        crt_solve([(1, 4), (0, 6)])  # conflict mod 2
    with pytest.raises(ValueError):
        crt_solve([(2, 4), (2, 6)])  # consistent but not pairwise coprime
    with pytest.raises(ValueError):
        crt_solve([(5, 3)])  # residue out of range
    with pytest.raises(ValueError):
        crt_solve([(0, 0)])
    assert crt_solve([]) == (0, 1)  # empty constraint


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 30), min_size=1, max_size=4), st.randoms())
def test_crt_substitution(mods, rnd):
    congs = [(rnd.randrange(m), m) for m in mods]
    coprime = all(
        math.gcd(mods[i], mods[j]) == 1
        for i in range(len(mods))
        for j in range(i + 1, len(mods))
    )
    if coprime:
        a, m = crt_solve(congs)
        assert m == math.prod(mods)
        assert a == oracles.brute_crt(congs, m)
        for r, mod in congs:
            assert a % mod == r
    else:
        lim = math.lcm(*mods)
        if oracles.brute_crt(congs, lim) is None:
            with pytest.raises(InfeasibleError):
                crt_solve(congs)
        else:
            with pytest.raises(ValueError):
                crt_solve(congs)


def test_euler_phi_small():
    want = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [euler_phi(n) for n in range(1, 13)] == want
    for n in range(1, 300):
        assert euler_phi(n) == sympy.totient(n)


def test_unit_group_structures():
    g4 = unit_group(4)
    assert g4.orders == (2,)
    g8 = unit_group(8)
    assert sorted(g8.orders) == [2, 2]
    g1 = unit_group(1)
    assert g1.orders == () and dict(zip(g1.units.tolist(), map(tuple, g1.dlog.tolist()))) == {0: ()}
    g9 = unit_group(9)
    assert g9.orders == (6,)
    with pytest.raises(CapacityError):
        unit_group(10**6 + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 12, 16, 24, 35, 36, 60, 97, 120, 200])
def test_unit_group_dlog_regenerates(q):
    ug = unit_group(q)
    phi = 1
    for _, order in ug.generators:
        phi *= order
    assert phi == euler_phi(q)
    assert len(set(ug.units.tolist())) == len(ug.dlog) == euler_phi(q)
    for res, exps in zip(ug.units.tolist(), ug.dlog.tolist()):
        assert math.gcd(res, q) == 1 or q == 1
        prod = 1 % q
        for (g, _), e in zip(ug.generators, exps):
            prod = prod * pow(g, e, q) % q
        assert prod == res, (q, res)
