"""Window experiments and long-range profiles.

The two window constructions locate, by CRT and scanning, pairs of short
intervals whose f-sums differ by an exactly computable quantity; the
profile helpers stream partial sums to 1e7..1e9 with dyadic or decade
checkpoints; the concentration experiment measures how tightly f sits on
its predicted value along an arithmetic progression.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .characters import deviation_primes
from .errors import CapacityError, SearchError
from .multfun import (
    EVAL_CAPACITY,
    CharacterTwist,
    MultFnSpec,
    ProfileState,
    RademacherSeeds,
    block_length,
    check_checkpoints,
    is_exact_spec,
    iter_blocks,
    make_spec,
    prime_unit_value,
    stream_profile,
    unit_pow,
)
from .pretentious import distance, f_of_q_sum


def is_squarefree_big(n: int) -> bool:
    """Certified squarefree test for 1 <= n <= FACTOR_LIMIT without full
    factorization: the cofactor past the cube root is 1, p, p^2 or p*q, and
    only p^2 is not squarefree."""
    small, cof = arith.small_factors(n)
    if any(e >= 2 for _, e in small):
        return False
    return cof == 1 or math.isqrt(cof) ** 2 != cof


def factorize_big(n: int) -> list[tuple[int, int]]:
    """Full factorization for 1 <= n <= FACTOR_LIMIT (window elements)."""
    return arith.factor(n)


def value_from_factors(spec: MultFnSpec, factors: list[tuple[int, int]]) -> complex:
    """f at a number given by its factorization (no damping; scale_r must be 0)."""
    if spec.scale_r:
        raise ValueError("window experiments need an undamped spec")
    val = 1 + 0j
    for p, e in factors:
        val *= unit_pow(prime_unit_value(spec, p), e)
    return val


def _valuation(n: int, p: int) -> int:
    """v_p(n) for n >= 1."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _window_modulus(H: int, q: int, kind: str = "factorial", w: int | None = None) -> int:
    """W = (H!)^2, or prod_{p <= w} p^w for the primorial kind (w defaults to
    H); q must divide W so that chi(W*m + r) = chi(r), and the first window,
    W + 1..W + H, must stay within FACTOR_LIMIT."""
    if H < 1:
        raise ValueError("H must be >= 1")
    if max(H, w or 0) > 64:  # then W >= 2^64; a huge (H!)^2 would never finish
        raise CapacityError(f"H={H} and w={w} must be <= 64: past that, every window "
                            f"W*m + 1..W*m + H passes FACTOR_LIMIT={arith.FACTOR_LIMIT}")
    if kind == "factorial":
        if w is not None:
            raise ValueError(f"w={w} is a primorial exponent; use the primorial modulus")
        W = math.factorial(H) ** 2
    elif kind == "primorial":
        w = H if w is None else w
        if w < H:
            raise ValueError(f"primorial exponent w={w} must be >= H={H}")
        W = math.prod(p**w for p in arith.primes_upto(w).tolist())
    else:
        raise ValueError(f"unknown window modulus kind {kind!r}")
    for p, e in arith.factor(q):
        v = _valuation(W, p)
        if v < e:
            raise ValueError(
                f"q={q} does not divide the window modulus; enlarge H so that "
                f"p={p} appears at least {e} times (have {v})"
            )
    if W + H > arith.FACTOR_LIMIT:
        raise _window_too_big(H, W, w, 1)
    return W


def _window_too_big(H: int, W: int, w: int | None, m: int) -> CapacityError:
    """The refusal of a window W*m + 1..W*m + H that passes FACTOR_LIMIT."""
    digits = str(W) if W < 10**24 else f"a {len(str(W))}-digit number"
    modulus = "W = (H!)^2" if w is None else f"w={w}, W = prod_(p<=w) p^w"
    return CapacityError(
        f"the window W*m + 1..W*m + H at m={m} passes FACTOR_LIMIT="
        f"{arith.FACTOR_LIMIT}: H={H}, {modulus} = {digits}; use a smaller H or w"
    )


def _check_plan(plan: list[tuple[int, int, int]], H: int, W: int, S: set[int], chi) -> None:
    """A plan entry (p, k, r) puts p^k at window offset r; each p must be a
    prime above H that deviates from chi, is coprime to q and W, and appears
    once, as must each r."""
    if len({p for p, _, _ in plan}) < len(plan) or len({r for _, _, r in plan}) < len(plan):
        raise ValueError("plan primes and residues must be distinct")
    for p, k, r in plan:
        if not arith.is_prime(p) or p <= H:
            raise ValueError(f"plan prime {p} must be a prime larger than H={H}")
        if k < 1 or not 1 <= r <= H:
            raise ValueError(f"plan entry ({p},{k},{r}) needs k >= 1 and 1 <= r <= H={H}")
        if k > 62 or p**k > arith.FACTOR_LIMIT:  # 2^62 passes it already
            raise CapacityError(f"plan entry ({p},{k},{r}): p^k passes FACTOR_LIMIT")
        if chi(p) == 0:
            raise ValueError(f"plan prime {p} divides the character modulus")
        if W % p == 0:
            raise ValueError(f"plan prime {p} divides the window modulus W")
        if p not in S:
            raise ValueError(
                f"plan prime {p} does not deviate from chi; its window term "
                "would vanish"
            )


def _cong(W: int, r: int, target: int, M: int) -> tuple[int, int]:
    """The class of m mod M with W*m + r = target (mod M)."""
    return (target - r) * pow(W % M, -1, M) % M, M


def _window(f: MultFnSpec, W: int, m: int, H: int, squarefree: bool) -> list:
    """(n, f(n)) for n = W*m + r, r = 1..H, optionally squarefree n only."""
    out = []
    for n in range(W * m + 1, W * m + H + 1):
        factors = factorize_big(n)
        if not squarefree or all(e == 1 for _, e in factors):
            out.append((n, value_from_factors(f, factors)))
    return out


def _window_pair(
    f: MultFnSpec,
    chi,
    H: int,
    W: int,
    S: set[int],
    plan: list[tuple[int, int, int]],
    scan_limit: int,
    fixed: tuple[tuple[int, int], ...] = (),
    squarefree: bool = False,
    w: int | None = None,
) -> tuple[list, list, dict]:
    """The CRT-window recipe behind both constructions.

    m = 0 mod every deviation prime p > H keeps W*m + r = r != 0 mod p off
    them; m' instead puts p^k || W*m' + r for each validated plan entry
    (p, k, r), so the window sums differ by
    sum_j (1 - (f(p_j)conj(chi(p_j)))^{k_j}) f(W*m + r_j).  The `fixed`
    congruences bind both m and m'; a squarefree pair keeps only squarefree
    elements and accepts m only when every planned element is squarefree.
    A class whose first members pass FACTOR_LIMIT is refused, naming H, W
    and the primorial exponent w.  Returns both windows and the fields the
    result classes share.
    """
    big_s = sorted(p for p in S if p > H)
    plan_ps = {p for p, _, _ in plan}
    top = (arith.FACTOR_LIMIT - H) // W  # the largest m whose window factorizes

    def accept(mm: int) -> bool:
        if mm > top:
            raise _window_too_big(H, W, w, mm)
        return not squarefree or all(is_squarefree_big(W * mm + r) for _, _, r in plan)

    m = _first_admissible([*fixed, *((0, p) for p in big_s)], accept, scan_limit)
    mp_congs = [*fixed, *((0, p) for p in big_s if p not in plan_ps)]
    mp_congs += [_cong(W, r, p**k, p ** (k + 1)) for p, k, r in plan]
    m_prime = _first_admissible(mp_congs, accept, scan_limit)

    # verify the construction did what the identity needs
    want = {(r, p): k for p, k, r in plan}
    for r in range(1, H + 1):
        for p in big_s:
            n, n_prime = W * m + r, W * m_prime + r
            if n % p == 0:
                raise AssertionError(f"first window element {n} hit a deviation prime")
            v, k = _valuation(n_prime, p), want.get((r, p), 0)
            if v != k:
                raise AssertionError(
                    f"second window element {n_prime} has v_{p} = {v}, wanted {k}"
                )

    vals = _window(f, W, m, H, squarefree)
    vals_p = _window(f, W, m_prime, H, squarefree)
    window_sum = sum((v for _, v in vals), 0j)
    window_prime_sum = sum((v for _, v in vals_p), 0j)
    measured = window_sum - window_prime_sum
    by_n = dict(vals)
    predicted = 0j
    for p, k, r in plan:
        ratio = prime_unit_value(f, p) * complex(np.conj(chi(p)))
        predicted += (1 - unit_pow(ratio, k)) * by_n[W * m + r]
    ok = measured == predicted if is_exact_spec(f) else abs(measured - predicted) <= 1e-9
    return vals, vals_p, dict(
        m=m,
        m_prime=m_prime,
        window_sum=window_sum,
        window_prime_sum=window_prime_sum,
        measured=measured,
        predicted=predicted,
        ok=ok,
    )


def _first_admissible(congruences, accept, scan_limit: int) -> int:
    """Smallest m >= 1 in the CRT class satisfying accept(m)."""
    a, M = arith.crt_solve(congruences)
    m = a if a > 0 else a + M
    for _ in range(scan_limit):
        if accept(m):
            return m
        m += M
    raise SearchError(
        f"no admissible m among the first {scan_limit} members of the class "
        f"{a} mod {M}"
    )


# ---------------------------------------------------------------------------
# rotation witness


@dataclass(eq=False)
class RotationWitness:
    """Two windows [Wm+1, Wm+H] and [Wm'+1, Wm'+H] whose f-sums differ by
    sum_j (1 - (f(p_j)conj(chi(p_j)))^{k_j}) * f(Wm + r_j), exactly."""

    H: int
    W: int
    plan: list[tuple[int, int, int]]
    m: int
    m_prime: int
    window_sum: complex
    window_prime_sum: complex
    measured: complex
    predicted: complex
    ok: bool
    elements: list[tuple[int, complex]]
    elements_prime: list[tuple[int, complex]]


def rotation_witness(
    f: MultFnSpec,
    chi,
    H: int,
    plan: list[tuple[int, int, int]],
    scan_limit: int = 10**6,
    modulus_kind: str = "factorial",
    w: int | None = None,
) -> RotationWitness:
    """Build the two-window rotation identity for f against chi.

    plan entries are (p, k, r): at residue r of the second window, prime p
    appears with exponent exactly k.  Primes in the plan must exceed H and
    deviate from chi; every other deviation prime above H is kept out of
    both windows by the residue-class construction.  w (the primorial
    exponent) needs modulus_kind="primorial".
    """
    S = deviation_primes(f, chi, "f")
    W = _window_modulus(H, chi.modulus, modulus_kind, w)
    _check_plan(plan, H, W, S, chi)
    for p in sorted(S):
        if p <= H and chi(p) == 0 and prime_unit_value(f, p) != 0:
            raise ValueError(
                f"deviation prime {p} <= H shares a factor with q and has a "
                "nonzero value; the window sums would not pair off"
            )
    if modulus_kind == "primorial":
        w = w or H
    vals, vals_p, shared = _window_pair(f, chi, H, W, S, plan, scan_limit, w=w)
    keep = H <= 64
    return RotationWitness(
        H=H,
        W=W,
        plan=list(plan),
        elements=vals if keep else [],
        elements_prime=vals_p if keep else [],
        **shared,
    )


# ---------------------------------------------------------------------------
# squarefree pair


@dataclass(eq=False)
class SquarefreePair:
    """Two windows matched so that mu^2-weighted g-sums differ by
    sum_j (1 - g(p_j)chi(p_j)) g(r_j) = 2t * sign, exactly."""

    H: int
    W: int
    primes: list[int]
    residues: list[int]
    aux: dict[int, int]
    m: int
    m_prime: int
    window_sum: complex
    window_prime_sum: complex
    measured: complex
    predicted: complex
    sign: int
    ok: bool


def squarefree_pair(
    g: MultFnSpec,
    chi,
    H: int,
    primes: list[int],
    residues: list[int],
    scan_limit: int = 10**5,
) -> SquarefreePair:
    """Locate windows where mu^2(n)g(n) realizes the flipped-prime identity.

    residues r_j <= H must be squarefree with no prime factor deviating from
    chi, all of the same g-sign; primes p_j > H must carry g(p_j) = -chi(p_j),
    which holds once each deviates from chi (_check_plan) with chi real and
    g(p_j) = +-1.
    The first window makes every element at a residue r_j squarefree and
    coprime to the deviation set; the second forces p_j || element at r_j.
    """
    if not chi.real:
        raise ValueError("the squarefree pair construction needs a real character")
    S = deviation_primes(g, chi, "g")
    for p, w_ in g.exceptions.items():
        if w_ not in (1 + 0j, -1 + 0j):
            raise ValueError(f"g({p}) must be +-1, got {w_}")
    for p, _ in arith.factor(chi.modulus):
        if p not in g.exceptions:
            raise ValueError(
                f"g must choose a +-1 value at p={p} dividing the modulus"
            )
    if len(primes) != len(residues) or not primes:
        raise ValueError("primes and residues must be matching nonempty lists")
    W = _window_modulus(H, chi.modulus)
    plan = [(p, 1, r) for p, r in zip(primes, residues)]
    _check_plan(plan, H, W, S, chi)
    sign = 0
    for r in residues:
        factors = factorize_big(r)
        if any(e >= 2 for _, e in factors):
            raise ValueError(f"residue {r} must be squarefree in 1..{H}")
        if any(p in S for p, _ in factors):
            raise ValueError(f"residue {r} touches the deviation set")
        s_r = int(value_from_factors(g, factors).real)
        if sign == 0:
            sign = s_r
        elif s_r != sign:
            raise ValueError("residues must share a common g-sign")

    # auxiliary primes force mu^2 = 0 at squarefree non-plan residues
    aux: dict[int, int] = {}
    pool = iter(
        int(p)
        for p in arith.primes_upto(10**4).tolist()
        if p > H and p not in S and p not in primes
    )
    for r in range(1, H + 1):
        if r in residues or not is_squarefree_big(r):
            continue
        aux[r] = next(pool)
    fixed = tuple(_cong(W, r, 0, A * A) for r, A in aux.items())
    _, _, shared = _window_pair(g, chi, H, W, S, plan, scan_limit, fixed, squarefree=True)
    return SquarefreePair(
        H=H,
        W=W,
        primes=list(primes),
        residues=list(residues),
        aux=aux,
        sign=sign,
        **shared,
    )


# ---------------------------------------------------------------------------
# long-range profiles


@dataclass(eq=False)
class GrowthProfile:
    """Checkpointed discrepancy profile with a crude growth classification."""

    spec: MultFnSpec
    kind: str
    checkpoints: list[int]
    sums: list[complex]
    sups: list[float]
    slope: float
    regime: str


def _check_checkpoint_range(N: int) -> None:
    if N < 1:
        raise ValueError(f"checkpoints need N >= 1, got N={N}")


def dyadic_checkpoints(N: int) -> list[int]:
    _check_checkpoint_range(N)
    out = [1 << k for k in range(N.bit_length()) if (1 << k) <= N]
    if out[-1] != N:
        out.append(N)
    return out


def decade_checkpoints(N: int) -> list[int]:
    _check_checkpoint_range(N)
    out = [10**k for k in range(len(str(N))) if 10**k <= N]
    if out[-1] != N:
        out.append(N)
    return out


def growth_profile(
    f: MultFnSpec,
    N: int,
    kind: str = "plain",
    checkpoints: list[int] | None = None,
) -> GrowthProfile:
    """Stream the (optionally squarefree-masked) discrepancy profile to N."""
    if kind not in ("plain", "squarefree"):
        raise ValueError(f"unknown profile kind {kind!r}")
    if checkpoints is None:
        checkpoints = dyadic_checkpoints(N)
    prof = stream_profile(f, N, checkpoints, squarefree=kind == "squarefree")
    xs = np.log(np.array(prof.checkpoints, dtype=np.float64))
    ys = np.array(prof.sups, dtype=np.float64)
    half = len(xs) // 2
    if len(xs) - half >= 2:
        slope = float(np.polyfit(xs[half:], ys[half:], 1)[0])
    else:
        slope = 0.0
    final = prof.sups[-1]
    mid = prof.sups[len(prof.sups) // 2]
    if final >= 0.45 * N:
        regime = "linear"
    elif mid > 0 and final >= 2.0 * mid:
        regime = "growing"
    else:
        regime = "bounded"
    return GrowthProfile(
        spec=f,
        kind=kind,
        checkpoints=prof.checkpoints,
        sums=prof.sums,
        sups=prof.sups,
        slope=slope,
        regime=regime,
    )


@dataclass(eq=False)
class RandomWalkSummary:
    """Median discrepancy profile over seeded random +-1 functions."""

    seeds: list[int]
    scale_r: float
    checkpoints: list[int]
    sups_per_seed: list[list[float]]
    median_sups: list[float]


def random_walk_mc(
    seeds: list[int] | int,
    scale_r: float,
    N: int,
    checkpoints: list[int] | None = None,
) -> RandomWalkSummary:
    """Profile f(n) = eps(n) n^(-scale_r) for hashed Rademacher eps over the
    given seeds (an int means range(seeds)); reports per-checkpoint medians.

    All seeds share one sieve per block and one sign table.  A thread pool
    capped by MULTSUM_THREADS evaluates the next blocks and the carry-free
    half of every seed's scan (RademacherSeeds.scans); each seed's
    ProfileState applies them in block order, chaining only the carries,
    so the output never depends on the thread count.  Each block holds one
    parity word per value for every 64 seeds, and more seeds than keep
    those words within EVAL_CAPACITY are refused before any list is built.
    """
    count = seeds if isinstance(seeds, int) else len(seeds)
    if -(-count // 64) * block_length(max(N, 1)) > EVAL_CAPACITY:
        raise CapacityError(f"{count} seeds at N={N} need more parity words per block "
                            f"than EVAL_CAPACITY={EVAL_CAPACITY}")
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    elif len({s % 2**64 for s in seeds}) < len(seeds):  # signs are keyed by seed mod 2^64
        keys = [s % 2**64 for s in seeds]
        i = next(i for i, k in enumerate(keys) if k in keys[:i])
        first, twice = seeds[keys.index(keys[i])], seeds[i]
        raise ValueError(f"seed {twice} given twice" if first == twice
                         else f"seeds {first} and {twice} are equal mod 2^64: one walk")
    family = RademacherSeeds(seeds, scale_r, N)
    if checkpoints is None:
        checkpoints = decade_checkpoints(N)
    check_checkpoints(checkpoints, N)
    states = [ProfileState(family.exact, real=True) for _ in seeds]
    sups: list[list[float]] = [[] for _ in seeds]
    for scans in family.scans(checkpoints):
        for state, scan, row in zip(states, scans, sups):
            row.extend(sup for _, _, sup in state.apply(scan))
    medians = np.median(np.array(sups, dtype=np.float64), axis=0).tolist()
    return RandomWalkSummary(
        seeds=list(seeds),
        scale_r=scale_r,
        checkpoints=list(checkpoints),
        sups_per_seed=sups,
        median_sups=medians,
    )


# ---------------------------------------------------------------------------
# concentration along a progression


@dataclass(eq=False)
class ConcentrationReport:
    """How tightly f(Qn+a) tracks chi(a)(Qn)^{it} e^{F(Q)} on average."""

    x: int
    Q: int
    a: int
    t: float
    N0: int
    f_of_q: complex
    deviation: float
    driver: float


def concentration_experiment(
    f: MultFnSpec, chi, t: float, Q: int, a: int, x: int
) -> ConcentrationReport:
    """Average |f(Qn+a) - chi(a)(Qn)^{it} e^{F(Q)}| over n <= x, against the
    distance-based driver D(f, chi*n^{it}; N0, x) + N0^{-1/2}.

    Q must absorb the character modulus and every prime up to the reported
    N0 (the largest prime whose primorial divides Q).
    """
    q = chi.modulus
    if Q < 1 or Q % q != 0:
        raise ValueError(f"Q={Q} must be a positive multiple of q={q}")
    if not 1 <= a <= Q or math.gcd(a, Q) != 1:
        raise ValueError(f"a={a} must lie in 1..Q and be coprime to Q")
    N0 = 1
    for p in arith.primes_upto(200).tolist():
        if Q % p:
            break
        N0 = p
    if x <= N0:
        raise ValueError(f"x={x} must exceed N0={N0}: the prime window is (N0, x]")
    if Q * x + a > EVAL_CAPACITY:
        raise CapacityError(
            f"Q*x + a = {Q}*{x} + {a} exceeds the evaluation capacity {EVAL_CAPACITY}")
    fq = f_of_q_sum(f, chi, t, Q, x)
    picks, lo = [], Q + a  # f(Qn + a) for n = 1..x, block by block
    for blk in iter_blocks(f, Q * x + a, start=Q + a):
        picks.append(blk[(a - lo) % Q :: Q].copy())  # a view would keep the block
        lo += len(blk)
    samples = np.concatenate(picks)
    n = np.arange(1, x + 1, dtype=np.float64)
    model = chi(a) * cmath.exp(fq)
    if t:
        model = model * np.exp(1j * t * np.log(Q * n))
    deviation = float(np.mean(np.abs(samples - model)))
    target = make_spec(CharacterTwist(chi=chi, t=t))
    drv = distance(f, target, x, y=N0).value + 1.0 / math.sqrt(N0)
    return ConcentrationReport(
        x=x,
        Q=Q,
        a=a,
        t=t,
        N0=N0,
        f_of_q=fq,
        deviation=deviation,
        driver=drv,
    )
