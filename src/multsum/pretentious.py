"""Prime-weighted comparison of multiplicative functions: the pretentious
distance, its prime-sum relatives, and product-form mean-value predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import CapacityError
from .multfun import (
    CharacterTwist,
    MultFnSpec,
    differing_primes,
    make_spec,
    sum_blocks,
    value_at_primes,
)

PRIME_SUM_LIMIT = 10**8
DIFFERENCE_CAP = 64


@dataclass(eq=False)
class DistanceResult:
    """Squared pretentious distance sum_{y < p <= x} (1 - Re f(p)conj(g(p)))/p."""

    y: int
    x: int
    value2: float
    primes_used: int

    @property
    def value(self) -> float:
        return math.sqrt(max(self.value2, 0.0))


def _primes_in(y: int, x: int) -> np.ndarray:
    if not 0 <= y < x:
        raise ValueError(f"prime window (y, x] = ({y}, {x}] needs 0 <= y < x")
    if x > PRIME_SUM_LIMIT:
        raise CapacityError(f"prime window ({y}, {x}] outside 0..{PRIME_SUM_LIMIT}")
    ps = arith.primes_upto(x)
    return ps[ps > y]


def distance(f: MultFnSpec, g: MultFnSpec, x: int, y: int = 1) -> DistanceResult:
    """Pretentious distance between f and g over primes in (y, x]."""
    ps = _primes_in(y, x)
    fv = value_at_primes(f, ps)
    gv = value_at_primes(g, ps)
    terms = (1.0 - (fv * np.conj(gv)).real) / ps
    # each term sits in [0, 2/p]; fsum keeps the total exact to one ulp
    value2 = math.fsum(terms.tolist())
    return DistanceResult(y=y, x=x, value2=value2, primes_used=len(ps))


def f_of_q_sum(f: MultFnSpec, chi, t: float, Q: int, x: int) -> complex:
    """F(Q) = sum over p <= x, p not dividing Q, of (f(p)conj(chi(p))p^(-it) - 1)/p.

    Requires chi's modulus to divide Q so the omitted primes cover the ones
    where chi vanishes.
    """
    if Q < 1 or Q % chi.modulus != 0:
        raise ValueError(f"Q={Q} must be a positive multiple of q={chi.modulus}")
    ps = _primes_in(1, x)
    ps = ps[np.mod(Q, ps) != 0]
    fv = value_at_primes(f, ps)
    cv = value_at_primes(make_spec(CharacterTwist(chi=chi, t=t)), ps)
    terms = (fv * np.conj(cv) - 1.0) / ps
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


@dataclass(eq=False)
class MeanValueReport:
    """Product-form prediction of the mean of f against the measured mean."""

    x: int
    t: float
    squarefree_support: bool
    product: complex
    prefactor: complex
    predicted: complex
    empirical: complex
    gap: float


def delange_mean(
    f: MultFnSpec, t: float, x: int, squarefree_support: bool = False
) -> MeanValueReport:
    """Compare (1/x) sum_{n<=x} f(n) with its Euler-product prediction
    x^(it)/(1+it) * prod_{p<=x} (1-1/p)(1 - f(p)p^(-it)/p)^(-1); the
    squarefree variant replaces the local factor with (1 + f(p)p^(-it)/p)
    and masks the empirical sum to squarefree n.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got t = {t}")
    ps = _primes_in(1, x)
    fv = value_at_primes(f, ps)
    pt = fv / ps if t == 0 else fv * np.exp(-1j * t * np.log(ps.astype(np.float64))) / ps
    lead = 1.0 - 1.0 / ps
    if squarefree_support:
        factors = lead * (1.0 + pt)
    else:
        factors = lead / (1.0 - pt)
    product = complex(np.prod(factors))
    prefactor = (
        complex(math.cos(t * math.log(x)), math.sin(t * math.log(x))) / (1 + 1j * t)
        if t
        else 1 + 0j
    )
    predicted = prefactor * product

    empirical = sum_blocks(f, x, squarefree=squarefree_support) / x
    return MeanValueReport(
        x=x,
        t=t,
        squarefree_support=squarefree_support,
        product=product,
        prefactor=prefactor,
        predicted=predicted,
        empirical=empirical,
        gap=abs(predicted - empirical),
    )


# ---------------------------------------------------------------------------
# perturbation constants


def perturbation_constant(f: MultFnSpec, f_tilde: MultFnSpec) -> complex:
    """prod over primes where the two specs differ of
    1 + (f~(p) - f(p)) / (p - f~(p)).

    Requires the specs to agree outside a finite prime set (same base tail
    and same damping) and |f~(p)| < 1 at every difference prime.
    """
    diff = differing_primes(f, f_tilde)
    if diff is None:
        raise ValueError(
            "specs differ at infinitely many primes; the perturbation product "
            "only exists for a finite difference set"
        )
    if len(diff) > DIFFERENCE_CAP:
        raise CapacityError(
            f"{len(diff)} candidate difference primes exceed the cap {DIFFERENCE_CAP}")
    ps = np.array(diff, dtype=np.uint64)  # exception primes reach 2^64
    out = 1 + 0j
    for p, fp, gp in zip(diff, value_at_primes(f, ps).tolist(),
                         value_at_primes(f_tilde, ps).tolist()):
        if fp == gp:
            continue
        if abs(gp) >= 1.0 - 1e-12:
            raise ValueError(
                f"|f~({p})| = {abs(gp):.6g} is not < 1; the perturbed value "
                "must sit strictly inside the unit disc at difference primes"
            )
        out *= 1 + (gp - fp) / (p - gp)
    return out
