"""Integer arithmetic substrate: prime sieves, smallest-prime-factor tables,
factorization, CRT solving, the Kronecker symbol, and unit groups of Z/qZ."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InfeasibleError

SPF_LIMIT = 10**9
# Above this the full table would not fit in memory; point queries fall back
# to trial division and range queries to per-segment sieving.
SPF_DENSE_LIMIT = 10**7
SPF_SEGMENT = 1 << 20


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as int64."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    composite = np.zeros(n + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).astype(np.int64)


@dataclass(eq=False)
class SpfTable:
    """Smallest-prime-factor lookups for 2..limit.

    `spf` is the dense table (spf[n] = smallest prime factor of n) when
    limit <= SPF_DENSE_LIMIT, else None and queries go through the base
    primes <= sqrt(limit).
    """

    limit: int
    spf: np.ndarray | None
    base_primes: np.ndarray

    def spf_at(self, n: int) -> int:
        """Smallest prime factor of n (n itself when n is prime)."""
        if not 2 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range 2..{self.limit}")
        if self.spf is not None:
            return int(self.spf[n])
        ps = self.base_primes
        hits = ps[n % ps == 0]
        if len(hits):
            return int(hits[0])
        return n

    def segment(self, lo: int, hi: int) -> np.ndarray:
        """Dense spf values for the half-open range [lo, hi), hi <= limit + 1."""
        if not 2 <= lo < hi <= self.limit + 1:
            raise ValueError(f"bad segment [{lo}, {hi}) for limit {self.limit}")
        if self.spf is not None:
            return self.spf[lo:hi].astype(np.int64)
        out = np.zeros(hi - lo, dtype=np.int64)
        for p in self.base_primes:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            if start >= hi:
                continue
            sl = out[start - lo :: p]
            sl[sl == 0] = p
        unresolved = np.flatnonzero(out == 0)
        out[unresolved] = unresolved + lo
        return out


def spf_sieve(limit: int) -> SpfTable:
    """Build an SpfTable for 2..limit.  Capacity: 2 <= limit <= SPF_LIMIT."""
    if not 2 <= limit <= SPF_LIMIT:
        raise CapacityError(f"spf_sieve limit {limit} outside 2..{SPF_LIMIT}")
    base = primes_upto(math.isqrt(limit))
    if limit > SPF_DENSE_LIMIT:
        return SpfTable(limit=limit, spf=None, base_primes=base)
    table = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if table[p] == 0:
            sl = table[p * p :: p]
            sl[sl == 0] = p
    unresolved = np.flatnonzero(table[2:] == 0) + 2
    table[unresolved] = unresolved
    return SpfTable(limit=limit, spf=table, base_primes=base)


def factorize(n: int, table: SpfTable) -> list[tuple[int, int]]:
    """Prime factorization of n as an ascending list of (prime, exponent)."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range 1..{table.limit}")
    out: list[tuple[int, int]] = []
    if n == 1:
        return out
    if table.spf is not None:
        while n > 1:
            p = int(table.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out
    ps = table.base_primes
    for p in ps[n % ps == 0]:
        p = int(p)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    if n > 1:
        # cofactor has no divisor <= sqrt(original n), hence prime
        out.append((n, 1))
    return out


def mobius_square(n: int, table: SpfTable) -> int:
    """mu(n)^2: 1 if n is squarefree, else 0."""
    return int(all(e == 1 for _, e in factorize(n, table)))


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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), fully extended to all integer pairs."""
    if n == 0:
        return 1 if abs(d) == 1 else 0
    sign = 1
    if n < 0:
        n = -n
        if d < 0:
            sign = -sign
    if n % 2 == 0:
        if d % 2 == 0:
            return 0
        v = 0
        while n % 2 == 0:
            n //= 2
            v += 1
        if v % 2 == 1 and d % 8 in (3, 5):
            sign = -sign
    return sign * _jacobi(d % n, n)


def factor_small(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization for moduli-sized integers."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factor_small(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def _primitive_root(p: int, e: int) -> int:
    """Primitive root modulo p^e for odd prime p."""
    parts = [ell for ell, _ in factor_small(p - 1)]
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
    for p, e in factor_small(q):
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
