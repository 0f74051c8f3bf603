"""Dirichlet series utilities: partial sums, zeta and L values via
Euler-Maclaurin tails, and the Euler-product factorization check for
squarefree-supported multiplicative functions."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .characters import deviation_primes
from .multfun import MultFnSpec, prime_unit_value, sum_blocks

# B_2, B_4, ..., B_16: enough correction terms for 1e-13 accuracy once the
# cutoff clears |Im s|
_BERN = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)


def _em_correction(s: complex, M: float) -> tuple[complex, float]:
    """Euler-Maclaurin Bernoulli corrections for sum_{n>=M} n^(-s) beyond the
    pole and half terms; returns (sum of terms, magnitude of the last one)."""
    total = 0j
    poch = 1 + 0j
    k = 0
    last = 0.0
    for j, b in enumerate(_BERN, start=1):
        while k < 2 * j - 1:
            poch *= s + k
            k += 1
        term = b / math.factorial(2 * j) * poch * M ** (-s - (2 * j - 1))
        total += term
        last = abs(term)
    return total, last


def zeta(s: complex) -> complex:
    """Riemann zeta for Re(s) > 1, via truncation plus Euler-Maclaurin tail."""
    s = complex(s)
    if not (s.real > 1.0 and cmath.isfinite(s)):
        raise ValueError(f"zeta requires a finite s with Re(s) > 1, got s = {s}")
    M = max(20, int(abs(s.imag)) + 1)
    while True:
        n = np.arange(1, M, dtype=np.float64)
        head = complex(np.sum(np.exp(-s * np.log(n))))
        tail = M ** (1 - s) / (s - 1) + 0.5 * M ** (-s)
        corr, last = _em_correction(s, float(M))
        value = head + tail + corr
        if last <= 1e-16 * max(1.0, abs(value)) or M > 10**7:
            return value
        M *= 2


def _phase_series(w: complex, logm: float) -> complex:
    """sum_{k>=1} (-1)^k w^(k-1) logm^k / k!  (equals (e^(-w*logm)-1)/w)."""
    total = 0j
    term = 1 + 0j  # w^(k-1) * logm^k / k! at k, times (-1)^k
    for k in range(1, 300):
        term = term * logm / k * (1 if k == 1 else w)
        contrib = term if k % 2 == 0 else -term
        total += contrib
        if abs(contrib) < 1e-20 * max(1.0, abs(total)):
            break
    return total


def l_chi(s: complex, chi) -> complex:
    """Dirichlet L-value L(s, chi).

    Principal characters reduce to zeta (Re(s) > 1 required); non-principal
    characters converge for Re(s) > 0 and are evaluated residue class by
    residue class with Euler-Maclaurin tails.  Near s = 1 the pole parts of
    the per-class tails are combined into one entire series, so the
    evaluation stays stable across the line s = 1.
    """
    s = complex(s)
    q = chi.modulus
    if chi.principal:
        if not (s.real > 1.0 and cmath.isfinite(s)):
            raise ValueError(f"principal characters need a finite s with Re(s) > 1, got s = {s}")
        val = zeta(s)
        for p, _ in arith.factor(q):
            val *= 1 - cmath.exp(-s * math.log(p))
        return val
    if not (s.real > 0.0 and cmath.isfinite(s)):
        raise ValueError(f"l_chi requires a finite s with Re(s) > 0, got s = {s}")

    residues = [a for a in range(1, q) if chi.values[a] != 0]
    K = max(20, int(abs(s.imag)) + 1)
    while True:
        acc = 0j
        pole_parts: list[tuple[complex, float]] = []
        last_mag = 0.0
        for a in residues:
            ca = complex(chi.values[a])
            alpha = a / q
            k = np.arange(K, dtype=np.float64) + alpha
            acc += ca * complex(np.sum(np.exp(-s * np.log(k))))
            Ma = K + alpha
            acc += ca * 0.5 * Ma ** (-s)
            corr, last = _em_correction(s, Ma)
            acc += ca * corr
            last_mag = max(last_mag, last)
            pole_parts.append((ca, Ma))
        w = s - 1
        if abs(w) * math.log(K + 1) <= 2.0:
            # sum_a chi(a)/(s-1) vanishes, so expand M^(1-s)/(s-1) about s=1
            # and drop that common pole term
            for ca, Ma in pole_parts:
                acc += ca * _phase_series(w, math.log(Ma))
        else:
            for ca, Ma in pole_parts:
                acc += ca * Ma ** (1 - s) / w
        value = cmath.exp(-s * math.log(q)) * acc
        if last_mag <= 1e-15 * max(1.0, abs(acc)) or K > 10**6:
            return value
        K *= 2


@dataclass(eq=False)
class SeriesCheck:
    """One comparison of a truncated Dirichlet series against its
    product-form factorization."""

    s: complex
    N: int
    partial: complex
    finite_product: complex
    l_value: complex
    zeta_2s: complex
    factored: complex
    residual: float
    expected_scale: float


def dirichlet_partial(
    f: MultFnSpec, s: complex, N: int, squarefree_support: bool = False
) -> complex:
    """sum_{n<=N} f(n) n^(-s), optionally restricted to squarefree n.  Each
    term is np.multiply(n^(-s), f(n)), fresh: the operand order, and so the
    bits, that numpy's elision gives `f(n) * n^(-s)` only from 2^14 values."""
    s = complex(s)
    if not (s.real > 0 and cmath.isfinite(s)):
        raise ValueError(f"partial Dirichlet sums need a finite s with Re(s) > 0, got s = {s}")
    return sum_blocks(
        f, N, lambda n, v: np.multiply(np.exp(-s * np.log(n)), v), squarefree_support
    )


def _series_prime_set(g: MultFnSpec, chi) -> list[int]:
    """Primes where the local Euler factor of mu^2 * g deviates from the
    L(s,chi)/zeta(2s) tail: divisors of q plus genuine exceptions."""
    S = deviation_primes(g, chi, "g")
    if not chi.real:
        raise ValueError("the factorization needs a real character")
    for p, w in g.exceptions.items():
        if w.imag != 0:
            raise ValueError(f"g({p}) is not real")
    return sorted(S | {p for p, _ in arith.factor(chi.modulus)})


def finite_product_P(g: MultFnSpec, chi, s: complex) -> complex:
    """The finite Euler correction P(s) = prod over deviating primes of
    (1 + g(p)p^(-s)) (1 - chi(p)p^(-s)) / (1 - p^(-2s))."""
    s = complex(s)
    out = 1 + 0j
    for p in _series_prime_set(g, chi):
        ps = cmath.exp(-s * math.log(p))
        gp = prime_unit_value(g, p)
        out *= (1 + gp * ps) * (1 - chi(p) * ps) / (1 - ps * ps)
    return out


def residual_check(g: MultFnSpec, chi, s: complex, N: int) -> SeriesCheck:
    """Compare sum_{n<=N} mu^2(n) g(n) n^(-s) with P(s) L(s,chi) / zeta(2s).

    Needs Re(s) > 1 for absolute convergence; the residual is the truncation
    tail, which shrinks roughly like N^(1-Re(s)).
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError(f"residual_check requires Re(s) > 1, got {s.real}")
    partial = dirichlet_partial(g, s, N, squarefree_support=True)
    P = finite_product_P(g, chi, s)
    L = l_chi(s, chi)
    Z = zeta(2 * s)
    factored = P * L / Z
    return SeriesCheck(
        s=s,
        N=N,
        partial=partial,
        finite_product=P,
        l_value=L,
        zeta_2s=Z,
        factored=factored,
        residual=abs(partial - factored),
        expected_scale=N ** (1 - s.real),
    )
