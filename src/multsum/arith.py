"""Integer arithmetic substrate: prime sieves, prime-power sieve plans and
passes, factorization and primality, CRT solving, and unit groups of Z/qZ.

`factor` and `is_prime` are the package's only factorization and primality
path, and this is the only module that imports sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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
    ps = base_primes[: np.searchsorted(base_primes, math.isqrt(hi - 1), "right")]
    squares = ps * ps
    for start, sq in zip((-lo % squares).tolist(), squares.tolist()):
        mask[start::sq] = False
    return mask


SIEVE_PERIOD = 55440  # 2^4 3^2 5 7 11: a SievePass lays the powers dividing it from a table


def prime_powers(primes: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Every prime power q = p^k <= x (k >= 1) of the ascending int64
    primes, each at most x, ordered by p and then k, and the p of each."""
    qs, pk = [primes[:0]], primes
    while len(pk):
        qs.append(pk)
        keep = np.count_nonzero(pk <= x // primes[: len(pk)])  # a prefix
        pk = pk[:keep] * primes[:keep]
    q = np.concatenate(qs)
    p = np.concatenate([primes[: len(a)] for a in qs])
    order = np.argsort(p, kind="stable")
    return q[order], p[order]


def periodic(
    table: np.ndarray, lo: int, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """table[(lo + i) % len(table)] for i in range(length): one period laid
    from residue lo % len(table), then copied onto itself by doubling; into
    out when given (length values of table's dtype)."""
    q = len(table)
    if out is None:
        out = np.empty(length, dtype=table.dtype)
    s = lo % q
    filled = min(q - s, length)
    out[:filled] = table[s : s + filled]
    rest = min(s, length - filled)
    out[filled : filled + rest] = table[:rest]
    filled += rest  # min(q, length): one whole period, or the whole block
    while filled < length:
        step = min(filled, length - filled)
        out[filled : filled + step] = out[:step]
        filled += step
    return out


def stride_fold(out: np.ndarray, lo: int, q: np.ndarray, w: np.ndarray, ufunc: np.ufunc) -> None:
    """out[i] = ufunc(out[i], w[j]) wherever q[j] divides lo + i, for each j
    in order: every start in one array expression, then one strided store
    per q with a multiple in the block.  numpy folds a one-value view into
    itself by a scalar loop that rounds a complex product otherwise, so a
    lone multiple takes a fresh output: its bits do not follow the block."""
    off = -lo % q
    hit = np.flatnonzero(off < len(out))
    for o, s, v in zip(off[hit].tolist(), q[hit].tolist(), w[hit].tolist()):
        view = out[o::s]
        if len(view) > 1:
            ufunc(view, v, out=view)
        else:
            view[0] = ufunc(view, v)[0]


@dataclass(eq=False)
class PowerPlan:
    """The prime powers that sieve the blocks [lo, hi) of a range 1..x:
    every q = p^k <= x of the base primes (up to sqrt(x)) and of the extra
    primes <= x, each listed once.  A block needs the base primes up to
    sqrt(hi - 1) and every extra prime, so the powers are ordered by their
    cut, p for a base prime and 0 for an extra one, and a block's are a
    prefix.  The tables of its passes cover period = min(SIEVE_PERIOD,
    x + 1) residues: no n <= x wraps around a shorter one."""

    primes: np.ndarray  # ascending
    extra: np.ndarray  # whether each of primes is an extra prime
    q: np.ndarray
    j: np.ndarray  # the index of each q's prime in primes
    cut: np.ndarray
    period: int

    @classmethod
    def of(cls, base_primes: np.ndarray, extra: Iterable[int], x: int) -> PowerPlan:
        more = np.array(sorted(p for p in extra if p <= x), dtype=np.int64)
        primes = np.union1d(base_primes, more)
        is_extra = np.isin(primes, more)
        q, p = prime_powers(primes, x)
        j = np.searchsorted(primes, p)
        cut = np.where(is_extra[j], 0, p)
        order = np.argsort(cut, kind="stable")
        return cls(primes, is_extra, q[order], j[order], cut[order], min(SIEVE_PERIOD, x + 1))


@dataclass(eq=False)
class SievePass:
    """One sieve over a plan's blocks: value(n) = ufunc folded, from
    ufunc's identity, over w(p) for every prime power p^k of the plan
    dividing n.

    What the powers dividing SIEVE_PERIOD add depends on n mod the period
    alone, so it is laid from `table`, indexed by n mod the period; the
    other powers are strided block by block.  Powers whose weight is the
    identity are left out.  Built by SievePass.of(plan, w, ufunc, dtype),
    w holding w(p) for p in plan.primes.
    """

    table: np.ndarray
    cut: np.ndarray
    q: np.ndarray
    w: np.ndarray
    ufunc: np.ufunc

    @classmethod
    def of(cls, plan: PowerPlan, w: np.ndarray, ufunc: np.ufunc, dtype: type) -> SievePass:
        w = w[plan.j]
        used = w != ufunc.identity
        pre = used & (SIEVE_PERIOD % plan.q == 0)
        table = np.full(plan.period, ufunc.identity, dtype)
        stride_fold(table, 0, plan.q[pre], w[pre], ufunc)
        rest = used & ~pre
        return cls(table, plan.cut[rest], plan.q[rest], w[rest], ufunc)

    def __call__(self, lo: int, out: np.ndarray) -> np.ndarray:
        """value(n) for n = lo, ..., lo + len(out) - 1, written into out."""
        periodic(self.table, lo, len(out), out)
        k = np.searchsorted(self.cut, math.isqrt(lo + len(out) - 1), "right")
        stride_fold(out, lo, self.q[:k], self.w[:k], self.ufunc)
        return out


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
    """Structure of (Z/qZ)*: independent generators with their orders, every
    unit mod q, and row for row its exponents on the generators:
    units[i] = prod_j g_j^dlog[i, j] mod q."""

    modulus: int
    generators: list[tuple[int, int]]
    orders: tuple[int, ...]
    units: np.ndarray  # int64
    dlog: np.ndarray  # int64, one row of len(orders) exponents per unit


def _powers(g: int, order: int, q: int) -> np.ndarray:
    """g^t mod q for t in range(order), by doubling; products stay below q^2."""
    pw = np.empty(order, dtype=np.int64)
    pw[0] = 1 % q
    filled = 1
    while filled < order:
        step = min(filled, order - filled)
        pw[filled : filled + step] = pw[:step] * pow(g, filled, q) % q
        filled += step
    return pw


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
    orders = tuple(order for _, order in gens)
    units = np.array([1 % q], dtype=np.int64)
    for g, order in gens:  # the last generator's exponent runs fastest
        units = np.multiply.outer(units, _powers(g, order, q)).ravel() % q
    dlog = np.indices(orders, dtype=np.int64).reshape(len(orders), len(units)).T
    seen = np.zeros(q, dtype=bool)
    seen[units] = True
    if np.count_nonzero(seen) != euler_phi(q):
        raise AssertionError(f"unit group enumeration broken for q={q}")
    return UnitGroup(modulus=q, generators=gens, orders=orders, units=units, dlog=dlog)
