"""Dirichlet characters and modified characters.

A modified character agrees with a character chi of modulus q at every
prime except one redirected prime r coprime to q, where it takes a chosen
unimodular value z.  Its restricted partial sums satisfy an exact
self-similar recursion that makes sums at astronomically large x cheap,
and the recursion drives the growth-witness construction.  More generally,
a character variant is a spec equal to chi off a finite prime set; the
window constructions and the Euler-product check take such variants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import CapacityError
from .multfun import (
    CharacterTwist,
    MultFnSpec,
    differing_primes,
    is_exact_spec,
    make_spec,
    prime_unit_value,
    unit_pow,
)

CHARACTER_MODULUS_LIMIT = 10**6
SIGMA_CHUNK = 1 << 16  # multipliers m per sigma_many call of first_nonzero_sigma


@dataclass(eq=False)
class DirichletCharacter:
    """One character mod q, tabulated on residues 0..q-1.

    values[a] = chi(a); chi(n) for any n is values[n % q].  `exponents` is
    the dual tuple pairing with the unit group's generators, and `index` is
    the character's position in character_table(q) ordering (0 = principal).
    """

    modulus: int
    index: int
    values: np.ndarray
    exponents: tuple[int, ...]
    principal: bool
    real: bool
    conductor: int

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.modulus])


def _build_character(
    q: int, ug: arith.UnitGroup, cs: tuple[int, ...], index: int
) -> DirichletCharacter:
    """The character with exponents cs: chi(u) = e(pair(u)/lcm), pair(u) =
    sum_j cs[j] dlog(u)[j] lcm/orders[j] mod lcm.  Every pair is a multiple
    k of step, so one root cos + i sin of 2 pi k / lcm per multiple
    tabulates the values, exact where it is a fourth root of unity."""
    lcm = math.lcm(*ug.orders)
    cw = np.array([c * (lcm // d) for c, d in zip(cs, ug.orders)], dtype=np.int64)
    step = math.gcd(lcm, *cw.tolist())
    k = np.arange(0, lcm, step)
    angle = 2.0 * math.pi * k / lcm
    roots = np.empty(len(k), dtype=np.complex128)
    np.cos(angle, out=roots.real)
    np.sin(angle, out=roots.imag)
    quarter = np.flatnonzero(4 * k % lcm == 0)
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // lcm]
    exps = ug.dlog @ cw % lcm
    pair = np.full(q, -1, dtype=np.int64)  # -1 off the units
    pair[ug.units] = exps
    values = np.zeros(q, dtype=np.complex128)
    values[ug.units] = roots[exps // step]
    powers = [[p**k for k in range(e + 1)] for p, e in arith.factor(q)]
    divisors = sorted(math.prod(ds) for ds in itertools.product(*powers))
    return DirichletCharacter(
        modulus=q,
        index=index,
        values=values,
        exponents=cs,
        principal=not any(cs),
        real=all(2 * c % d == 0 for c, d in zip(cs, ug.orders)),
        # the smallest d | q with chi trivial on every residue 1 mod d
        conductor=next(d for d in divisors if (pair[1 % d :: d] <= 0).all()),
    )


def _check_modulus(q: int) -> None:
    if not 1 <= q <= CHARACTER_MODULUS_LIMIT:
        raise CapacityError(
            f"character modulus {q} outside 1..{CHARACTER_MODULUS_LIMIT}"
        )


def character_table(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, index 0 principal.  Cost grows as
    phi(q)^2; meant for small moduli (single lookups scale further)."""
    _check_modulus(q)
    ug = arith.unit_group(q)
    duals = itertools.product(*map(range, ug.orders))
    return [_build_character(q, ug, cs, i) for i, cs in enumerate(duals)]


def character_by_index(q: int, index: int | str) -> DirichletCharacter:
    """Look up one character by table position, or by "real" for the unique
    real non-principal character when there is exactly one."""
    _check_modulus(q)
    ug = arith.unit_group(q)
    if isinstance(index, str) and index.strip().lower() == "real":
        halves = [(0, d // 2) if d % 2 == 0 else (0,) for d in ug.orders]
        reals = [cs for cs in itertools.product(*halves) if any(cs)]
        if len(reals) != 1:
            raise ValueError(
                f"modulus {q} has {len(reals)} real non-principal characters; "
                "pick one by numeric index"
            )
        cs = reals[0]
        return _build_character(q, ug, cs, int(np.ravel_multi_index(cs, ug.orders)))
    i = int(index)
    phi = len(ug.units)
    if not 0 <= i < phi:
        raise ValueError(f"character index {i} outside 0..{phi - 1} for q={q}")
    cs = tuple(int(c) for c in np.unravel_index(i, ug.orders))
    return _build_character(q, ug, cs, i)


# ---------------------------------------------------------------------------
# character variants and modified characters


def deviation_primes(f: MultFnSpec, chi, who: str = "f") -> set[int]:
    """Primes where f's unit value differs from chi (the set S); f, named
    `who` in the refusal, must be chi off a finite prime set (a character
    variant)."""
    candidates = differing_primes(f, make_spec(CharacterTwist(chi=chi)))
    if candidates is None:
        raise ValueError(f"{who} must be an untwisted, undamped character variant of chi")
    return {p for p in candidates if prime_unit_value(f, p) != chi(p)}


def modified_spec(chi: DirichletCharacter, r: int, z: complex) -> MultFnSpec:
    """Spec of the modified character: chi everywhere except value z at r."""
    if not arith.is_prime(r):
        raise ValueError(f"redirected prime r={r} is not prime")
    if math.gcd(r, chi.modulus) != 1:
        raise ValueError(
            f"r={r} divides the modulus {chi.modulus}; restrict the character "
            "to the r-free part of the modulus first"
        )
    if abs(abs(complex(z)) - 1.0) > 1e-12:
        raise ValueError(f"z must be unimodular, got |z|={abs(complex(z)):.6g}")
    return make_spec(CharacterTwist(chi=chi, t=0.0), exceptions={r: complex(z)})


@dataclass(eq=False)
class RecursionState:
    """Precomputed data for restricted partial sums of a modified character.

    s_table[j] = S(j) = sum_{n<=j, gcd(n,r)=1} chi(n) for 0 <= j <= r*q.
    chi is non-principal, so S(r*q) = 0 and S(x) = s_table[x % (r*q)] in
    O(1); the full modified sum needs one S value per power of r below x.
    """

    chi: DirichletCharacter
    r: int
    z: complex
    period: int
    s_table: np.ndarray
    exact: bool
    degenerate: bool  # z == chi(r): the modification changes nothing


def recursion_state(chi: DirichletCharacter, r: int, z: complex) -> RecursionState:
    """Recursion data for chi_{r,z}; chi must be non-principal.

    The recursion identities need S(r*q) = 0, which holds exactly when chi
    is non-principal.  The float period sum cannot decide that (it carries
    rounding noise for characters of order above 4), so the character's
    own flag does.
    """
    spec = modified_spec(chi, r, z)
    if chi.principal:
        raise ValueError(
            f"the principal character mod {chi.modulus} has a nonzero period "
            "sum S(r*q); the recursion needs a non-principal character"
        )
    z = complex(z)
    q = chi.modulus
    period = r * q
    s_table = arith.periodic(chi.values, 0, period + 1)
    s_table[0] = 0
    s_table[r::r] = 0
    np.cumsum(s_table, out=s_table)
    return RecursionState(
        chi=chi,
        r=r,
        z=z,
        period=period,
        s_table=s_table,
        exact=is_exact_spec(spec),
        degenerate=abs(z - chi(r)) <= 1e-12,
    )


def s_restricted(state: RecursionState, x: int) -> complex:
    """S(x) = sum_{n<=x, gcd(n,r)=1} chi(n), O(1) via the period table."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return complex(state.s_table[x % state.period])


def sigma_recursion(state: RecursionState, x: int) -> complex:
    """Sigma(x) = sum_{n<=x} chi_mod(n) as sum_k z^k S(x // r^k); exact in
    integer arithmetic whenever all values are fourth roots of unity."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    total = 0j
    k = 0
    while x > 0:
        total += unit_pow(state.z, k) * s_restricted(state, x)
        x //= state.r
        k += 1
    return total


def sigma_many(state: RecursionState, xs: np.ndarray) -> np.ndarray:
    """Vectorized Sigma over an int64 array of nonnegative arguments."""
    xs = np.asarray(xs, dtype=np.int64)
    if (xs < 0).any():
        raise ValueError(f"x must be >= 0, got {int(xs[xs < 0][0])}")
    total = np.zeros(xs.shape, dtype=np.complex128)
    cur = xs.copy()
    k = 0
    while np.any(cur > 0):
        total += unit_pow(state.z, k) * state.s_table[cur % state.period]
        cur //= state.r
        k += 1
    return total


def iterate_check(state: RecursionState, x: int, y: int, K: int) -> complex:
    """Residual of the exact stacking identity
    Sigma(r^K x + y) - z^K Sigma(x) - Sigma(y), for q | x, q | y, y < r^K."""
    q = state.chi.modulus
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if x < 1 or x % q != 0:
        raise ValueError(f"x={x} must be a positive multiple of q={q}")
    if y < 0 or y % q != 0:
        raise ValueError(f"y={y} must be 0 or a positive multiple of q={q}")
    if y >= state.r**K:
        raise ValueError(f"y={y} must be < r^K = {state.r ** K}")
    lhs = sigma_recursion(state, state.r**K * x + y)
    rhs = unit_pow(state.z, K) * sigma_recursion(state, x) + sigma_recursion(state, y)
    return lhs - rhs


# ---------------------------------------------------------------------------
# growth witnesses


@dataclass(eq=False)
class GrowthWitness:
    """A point n <= X where |Sigma(n)| is provably large, built by stacking
    scaled copies of a seed block with Sigma != 0 along powers of r."""

    regime: str  # "witness" or "zero-sum"
    X: int
    A: int | None = None
    K: int | None = None
    seed_sigma: complex = 0j
    m_list: tuple[int, ...] = ()
    n: int | None = None
    predicted: complex = 0j
    measured: complex = 0j
    lower_bound: float = 0.0
    bound_ok: bool = False
    exact_match: bool = False


def growth_witness(
    state: RecursionState,
    X: int,
    density: float | None = None,
    a_max: int | None = None,
) -> GrowthWitness:
    """Build a growth witness at scale X.

    Seed blocks A = mq are scanned for Sigma(A) != 0 up to a_max (default
    1e4 * q); when every Sigma(mq) vanishes the result reports the zero-sum
    regime instead.  Copy positions m are capped at density * log(X)
    (default 1/(10*K*r)) and filtered so each phase z^(K*m) stays within
    1/100 of 1, which keeps the stacked sum within 1% of (J+1)*|Sigma(A)|.
    """
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    q = state.chi.modulus
    if a_max is None:
        a_max = 10**4 * q
    seed = first_nonzero_sigma(state, max(a_max // q, 1))
    if seed is None:
        return GrowthWitness(regime="zero-sum", X=X)
    A = seed * q
    sigma_a = sigma_recursion(state, A)
    K = 1
    while state.r**K <= A:
        K += 1
    if density is None:
        density = 1.0 / (10.0 * K * state.r)
    m_cap = int(density * math.log(X))
    m_list: list[int] = []
    n = A
    tol = 1.0 / 100.0
    for m in range(1, m_cap + 1):
        if abs(unit_pow(state.z, K * m) - 1) > tol:
            continue
        step = state.r ** (m * K) * A
        if n + step > X:
            break
        m_list.append(m)
        n += step
    phases = sum(unit_pow(state.z, K * m) for m in m_list)
    predicted = sigma_a * (1 + phases)
    measured = sigma_recursion(state, n)
    j = len(m_list)
    lower = (1.0 - tol) * (j + 1) * abs(sigma_a)
    if state.exact:
        exact_match = measured == predicted
    else:
        exact_match = abs(measured - predicted) <= 1e-9 * (j + 1)
    return GrowthWitness(
        regime="witness",
        X=X,
        A=A,
        K=K,
        seed_sigma=sigma_a,
        m_list=tuple(m_list),
        n=n,
        predicted=predicted,
        measured=measured,
        lower_bound=lower,
        bound_ok=abs(measured) >= lower - 1e-9,
        exact_match=exact_match,
    )


def first_nonzero_sigma(state: RecursionState, M: int) -> int | None:
    """Smallest m <= M with Sigma(m q) != 0, or None when all of them vanish."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    q = state.chi.modulus
    tol = 0.0 if state.exact else 1e-9
    for lo in range(1, M + 1, SIGMA_CHUNK):
        hi = min(lo + SIGMA_CHUNK, M + 1)
        ms = np.arange(lo, hi, dtype=np.int64)
        sig = sigma_many(state, ms * q)
        hits = np.flatnonzero(np.abs(sig) > tol)
        if len(hits):
            return int(ms[hits[0]])
    return None
