"""Integer arithmetic substrate: prime sieves, factorization and primality,
CRT solving, and unit groups of Z/qZ.

`factor` and `is_prime` are the package's only factorization and primality
path, and this is the only module that imports sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy

from .errors import CapacityError, InfeasibleError

FACTOR_LIMIT = 4 * 10**18  # int64-safe bound for certified arithmetic


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as int64; the sieve holds the odd numbers only."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate([[2], 2 * np.flatnonzero(odd) + 1]).astype(np.int64)


def squarefree_block(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean squarefree mask for [lo, hi); base_primes must cover sqrt(hi-1)."""
    mask = np.ones(hi - lo, dtype=bool)
    for p in base_primes:
        sq = int(p) * int(p)
        if sq >= hi:
            break
        start = -(-lo // sq) * sq
        if start < hi:
            mask[start - lo :: sq] = False
    return mask


def crt_solve(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = a_i (mod m_i) for pairwise coprime moduli; returns (x, prod m).

    An inconsistent pair of congruences raises InfeasibleError; a consistent
    system whose moduli are not pairwise coprime violates the contract and
    raises ValueError.
    """
    for a, m in congruences:
        if m < 1:
            raise ValueError(f"modulus {m} must be positive")
        if not 0 <= a < m:
            raise ValueError(f"residue {a} outside 0..{m - 1}")
    x, mod = 0, 1
    coprime = True
    for a, m in congruences:
        g = math.gcd(mod, m)
        if g > 1:
            if (a - x) % g != 0:
                raise InfeasibleError(
                    f"congruences conflict modulo {g}: {x} mod {mod} vs {a} mod {m}"
                )
            coprime = False
        step = pow(mod // g, -1, m // g) if m // g > 1 else 0
        t = (a - x) // g * step % (m // g)
        x = x + mod * t
        mod = mod // g * m
        x %= mod
    if not coprime:
        raise ValueError("moduli are not pairwise coprime")
    return x, mod


def _icbrt(n: int) -> int:
    """Floor of the cube root of n >= 0."""
    c = round(n ** (1 / 3))
    while c**3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


TRIAL_BOUND = _icbrt(FACTOR_LIMIT)  # 1587401: trial division never goes past it


@lru_cache(maxsize=None)
def _cached_primes(bits: int) -> np.ndarray:
    """Primes below 2^bits, capped at TRIAL_BOUND: one sieve per bit length
    of the cube root, so small n never sieve to the full bound."""
    return primes_upto(min((1 << bits) - 1, TRIAL_BOUND))


def small_factors(n: int) -> tuple[list[tuple[int, int]], int]:
    """Divide out every prime <= cbrt(n), for 1 <= n <= FACTOR_LIMIT.

    Returns the ascending (p, e) pairs found and the cofactor.  Every prime
    left in the cofactor exceeds cbrt(n), so it is 1, p, p^2 or p*q.
    """
    if not 1 <= n <= FACTOR_LIMIT:
        raise ValueError(f"n={n} outside 1..FACTOR_LIMIT={FACTOR_LIMIT}")
    c = _icbrt(n)
    ps = _cached_primes(c.bit_length())
    ps = ps[: np.searchsorted(ps, c, side="right")]
    out = []
    for p in ps[n % ps == 0].tolist():
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out, n


def is_prime(n: int) -> bool:
    """Exact primality for n < 2^64; False below 2.

    sympy.isprime runs deterministic Miller-Rabin there (BPSW with gmpy2,
    which has no pseudoprime below 2^64).
    """
    if n < 2:
        return False
    if n >= 1 << 64:
        raise ValueError(f"is_prime is exact only below 2^64, got n={n}")
    return sympy.isprime(n)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n <= FACTOR_LIMIT as ascending (p, e)."""
    out, cof = small_factors(n)
    if cof > 1:
        root = math.isqrt(cof)
        if root * root == cof:
            out.append((root, 2))
        elif is_prime(cof):
            out.append((cof, 1))
        else:  # p*q with p < q
            split = sympy.factorint(cof)
            out.extend(sorted((int(p), int(e)) for p, e in split.items()))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def _primitive_root(p: int, e: int) -> int:
    """Primitive root modulo p^e for odd prime p."""
    parts = [ell for ell, _ in factor(p - 1)]
    g = next(
        g
        for g in range(2, p)
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in parts)
    )
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


UNIT_GROUP_LIMIT = 10**6


@dataclass(eq=False)
class UnitGroup:
    """Structure of (Z/qZ)*: independent generators with their orders, and a
    discrete-log table mapping each coprime residue to its exponent tuple."""

    modulus: int
    generators: list[tuple[int, int]]
    orders: tuple[int, ...]
    dlog: dict[int, tuple[int, ...]]


def unit_group(q: int) -> UnitGroup:
    """Decompose (Z/qZ)* into cyclic factors via CRT on the prime powers of q."""
    if not 1 <= q <= UNIT_GROUP_LIMIT:
        raise CapacityError(f"unit_group modulus {q} outside 1..{UNIT_GROUP_LIMIT}")
    gens: list[tuple[int, int]] = []
    for p, e in factor(q):
        pe = p**e
        rest = q // pe
        local: list[tuple[int, int]] = []
        if p == 2:
            if e == 2:
                local = [(3, 2)]
            elif e >= 3:
                local = [(pe - 1, 2), (5, 1 << (e - 2))]
        else:
            local = [(_primitive_root(p, e), (p - 1) * p ** (e - 1))]
        for g, order in local:
            if rest > 1:
                # lift to a generator that is 1 in every other CRT coordinate
                g, _ = crt_solve([(g % pe, pe), (1, rest)])
            gens.append((g, order))
    items: list[tuple[tuple[int, ...], int]] = [((), 1 % q)]
    for g, order in gens:
        nxt = []
        for tup, val in items:
            pw = 1
            for t in range(order):
                nxt.append((tup + (t,), val * pw % q))
                pw = pw * g % q
        items = nxt
    dlog = {val: tup for tup, val in items}
    if len(dlog) != euler_phi(q):
        raise AssertionError(f"unit group enumeration broken for q={q}")
    return UnitGroup(
        modulus=q,
        generators=gens,
        orders=tuple(order for _, order in gens),
        dlog=dlog,
    )
