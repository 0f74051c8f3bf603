"""Completely multiplicative functions: finite descriptions, point and bulk
sieved evaluation, and running partial-sum profiles.

A function is described by a base rule (value at every prime), a finite set
of prime exceptions overriding the base, and an optional global n^(-r)
damping.  Values are evaluated in independent blocks so profiles up to 1e9
run in bounded memory, and sums over values that stay in {0, +-1, +-i} are
float cumsums of integers below 2^53, so every one is exact.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_right
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import arith
from .accum import CHUNK, NeumaierSum, chunk_starts, chunk_sums, compensated_cumsum
from .errors import CapacityError

EVAL_CAPACITY = 130_000_000  # largest materialized range (memory bound)
STREAM_LIMIT = 10**9  # largest streamed profile
BLOCK = 1 << 18  # shortest block: a 2 MB int64 array stays in one core's L2
SUM_SPAN = 1 << 22  # values per np.sum of sum_blocks: fixes its summation order
PAIRWISE_LEAF = 128  # most values numpy's pairwise np.sum adds without a split
SIGN_TABLE_BYTES = 1 << 24  # largest per-prime sign-word table of RademacherSeeds
HASH_BATCH = 1 << 15  # primes per pass of the sign hash: 256 KB arrays stay in L2

_GAUSSIAN_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)
_ONE_BITS = np.float64(1.0).view(np.uint64)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# base rules


@dataclass(frozen=True)
class One:
    """f(p) = 1 at every prime."""


@dataclass(frozen=True)
class Liouville:
    """f(p) = -1 at every prime."""


@dataclass(frozen=True)
class RandomRademacher:
    """f(p) = +-1 chosen by a keyed hash of (seed, p); reproducible."""

    seed: int


@dataclass(frozen=True)
class CoprimeIndicator:
    """f(p) = 0 at primes dividing Q, else 1."""

    Q: int


@dataclass(eq=False)
class CharacterTwist:
    """f(p) = chi(p) * p^(it) for a Dirichlet character chi."""

    chi: object  # DirichletCharacter; duck-typed to avoid an import cycle
    t: float = 0.0


BaseRule = One | Liouville | RandomRademacher | CoprimeIndicator | CharacterTwist


@dataclass(eq=False)
class MultFnSpec:
    """Immutable description of a completely multiplicative function.

    f(n) = n^(-scale_r) * prod_p f0(p)^(v_p(n)) where f0 is the base rule's
    prime value, overridden at the exception primes.  Treat instances as
    frozen; they are shared by evaluators.
    """

    base: BaseRule
    scale_r: float = 0.0
    exceptions: dict[int, complex] = field(default_factory=dict)


def make_spec(
    base: BaseRule,
    scale_r: float = 0.0,
    exceptions: dict[int, complex] | None = None,
) -> MultFnSpec:
    """Validated MultFnSpec constructor."""
    exceptions = {int(p): complex(w) for p, w in (exceptions or {}).items()}
    for p, w in exceptions.items():
        if not arith.is_prime(p):
            raise ValueError(f"exception key {p} is not prime")
        if not math.isfinite(abs(w)):
            raise ValueError(f"exception value at p={p} is not finite: {w}")
        if abs(w) > 1 + 1e-12:
            raise ValueError(
                f"exception value at p={p} has |w|={abs(w):.6g} > 1; values "
                "must stay in the closed unit disc"
            )
    _check_scale_r(scale_r)
    if isinstance(base, CoprimeIndicator) and not 1 <= base.Q <= arith.FACTOR_LIMIT:
        raise ValueError(
            f"Q must be in 1..FACTOR_LIMIT={arith.FACTOR_LIMIT}, got {base.Q}"
        )
    if isinstance(base, CharacterTwist) and not math.isfinite(base.t):
        raise ValueError("twist exponent t must be finite")
    return MultFnSpec(base=base, scale_r=scale_r, exceptions=exceptions)


def _check_scale_r(scale_r: float) -> None:
    if not (scale_r >= 0 and math.isfinite(scale_r)):
        raise ValueError(f"scale_r must be a finite nonnegative real, got {scale_r}")


def build_spec(config: str) -> MultFnSpec:
    """Parse the textual spec grammar.

    base[:key=value,...][;except=p~re~im,...][;scale_r=r]
    bases: one | liouville | rademacher | coprime | char
    keys:  q=, index= (int or "real"), t=, seed=, Q=
    e.g.  "char:q=4,index=1;except=3~1~0"  or  "one;except=2~0.5~0"
    Each key, clause and exception prime appears at most once, non-empty.
    """
    parts = [s.strip() for s in config.strip().split(";") if s.strip()]
    if not parts:
        raise ValueError("empty spec string")
    head = parts[0]
    name, _, arg_str = head.partition(":")
    name = name.strip().lower()
    args: dict[str, str] = {}
    if arg_str:
        for kv in arg_str.split(","):
            k, sep, v = kv.partition("=")
            k, v = k.strip().lower(), v.strip()
            if not sep or not v or k in args:
                raise ValueError(f"key=value pair {kv!r} in spec is malformed, empty or repeated")
            args[k] = v

    if name == "one":
        base: BaseRule = One()
    elif name == "liouville":
        base = Liouville()
    elif name == "rademacher":
        base = RandomRademacher(seed=int(args.pop("seed", "0")))
    elif name == "coprime":
        q_val = args.pop("q", None)
        if q_val is None:
            raise ValueError("coprime base requires Q=")
        base = CoprimeIndicator(Q=int(q_val))
    elif name == "char":
        from .characters import character_by_index  # deferred: import cycle

        q_val, idx = args.pop("q", None), args.pop("index", None)
        if q_val is None or idx is None:
            raise ValueError("char base requires q= and index=")
        chi = character_by_index(int(q_val), idx)
        base = CharacterTwist(chi=chi, t=float(args.pop("t", "0")))
    else:
        raise ValueError(f"unknown base {name!r}")
    if args:
        raise ValueError(f"unused keys {sorted(args)} for base {name!r}")

    scale_r = None
    exceptions: dict[int, complex] = {}
    for part in parts[1:]:
        key, sep, val = part.partition("=")
        key = key.strip().lower()
        if not sep:
            raise ValueError(f"malformed spec clause {part!r}")
        if key == "scale_r" and scale_r is None:
            scale_r = float(val)
        elif key == "except":
            for ent in val.split(","):
                fields = ent.split("~")
                if len(fields) != 3:
                    raise ValueError(f"exception entry {ent!r} is not p~re~im")
                p, re_s, im_s = fields
                if int(p) in exceptions:
                    raise ValueError(f"exception prime {p} given twice in spec")
                exceptions[int(p)] = complex(float(re_s), float(im_s))
        else:
            raise ValueError(f"unknown or repeated spec clause {key!r}")
    return make_spec(base, scale_r=0.0 if scale_r is None else scale_r, exceptions=exceptions)


def spec_config(spec: MultFnSpec) -> str:
    """Round-trippable textual form of a spec (build_spec grammar)."""
    b = spec.base
    if isinstance(b, One):
        head = "one"
    elif isinstance(b, Liouville):
        head = "liouville"
    elif isinstance(b, RandomRademacher):
        head = f"rademacher:seed={b.seed}"
    elif isinstance(b, CoprimeIndicator):
        head = f"coprime:Q={b.Q}"
    else:
        head = f"char:q={b.chi.modulus},index={b.chi.index}"
        if b.t:
            head += f",t={b.t!r}"
    out = head
    if spec.exceptions:
        ents = ",".join(
            f"{p}~{w.real!r}~{w.imag!r}" for p, w in sorted(spec.exceptions.items())
        )
        out += f";except={ents}"
    if spec.scale_r:
        out += f";scale_r={spec.scale_r!r}"
    return out


# ---------------------------------------------------------------------------
# scalar evaluation


def _splitmix64(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer of a uint64 array, computed in place; tmp is
    uint64 scratch of x's shape, allocated when None.  Returns x."""
    if tmp is None:
        tmp = np.empty_like(x)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= np.right_shift(x, np.uint64(30), out=tmp)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= np.right_shift(x, np.uint64(27), out=tmp)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def _rademacher_minus(seed: int, ps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 where seed's hashed sign at the primes ps is -1, else 0, as uint64,
    written into out when given (a uint64 array of ps's shape, or ps itself).
    The primes are hashed HASH_BATCH at a time, so each pass stays in cache.
    """
    key = _splitmix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
    if out is None:
        out = np.empty(len(ps), dtype=np.uint64)
    tmp = np.empty(min(len(ps), HASH_BATCH), dtype=np.uint64)
    for a in range(0, len(ps), HASH_BATCH):
        x = np.bitwise_xor(ps[a : a + HASH_BATCH], key, out=out[a : a + HASH_BATCH],
                           dtype=np.uint64, casting="unsafe")
        _splitmix64(x, tmp[: len(x)])
        x >>= np.uint64(63)
    return out


def _sign_words(seeds: list[int], ps: np.ndarray, dtype: type) -> np.ndarray:
    """Words of an unsigned dtype, one per prime in ps: bit i is 1 where
    seeds[i]'s hashed sign at that prime is -1 (at most 64 seeds)."""
    words = np.zeros(len(ps), dtype=dtype)
    minus = np.empty(len(ps), np.uint64)
    for i, seed in enumerate(seeds):
        _rademacher_minus(seed, ps, minus)
        minus <<= np.uint64(i)
        np.bitwise_or(words, minus, out=words, casting="unsafe")
    return words


def rademacher_signs(seed: int, ps: np.ndarray) -> np.ndarray:
    """+-1 signs at the primes ps, keyed by seed; independent of sieve size."""
    return np.where(_rademacher_minus(seed, ps), -1.0, 1.0)


def unit_pow(w: complex, k: int) -> complex:
    """w^k by binary powering; exact for w in {0, +-1, +-i}."""
    if k == 0:
        return 1 + 0j
    if w == 0:
        return 0j
    re, im = w.real, w.imag
    if re == int(re) and im == int(im) and abs(w) == 1.0:
        if im == 0:
            return 1 + 0j if re > 0 or k % 2 == 0 else -1 + 0j
        quarter = 1 if im > 0 else 3
        return _GAUSSIAN_UNITS[quarter * k % 4]
    out = 1 + 0j
    b = w
    e = k
    while e:
        if e & 1:
            out *= b
        b *= b
        e >>= 1
    return out


def _base_values(base: BaseRule, ps: np.ndarray) -> np.ndarray:
    """The base rule's f0(p) at the primes ps (an int64 or uint64 array) as
    complex128, in the bits the sieve gives f(p)."""
    if isinstance(base, One):
        return np.ones(len(ps), dtype=np.complex128)
    if isinstance(base, Liouville):
        return np.full(len(ps), -1.0 + 0j)
    if isinstance(base, RandomRademacher):
        return rademacher_signs(base.seed, ps).astype(np.complex128)
    if isinstance(base, CoprimeIndicator):
        return np.where(np.gcd(ps, base.Q) == 1, 1.0 + 0j, 0j)
    chi = base.chi
    vals = chi.values[np.mod(ps, chi.modulus)].astype(np.complex128)
    return _twisted(vals, ps.astype(np.float64), base.t) if base.t else vals


def prime_unit_value(spec: MultFnSpec, p: int) -> complex:
    """f0(p) at a prime p, undamped: the exception value, else the base value
    of value_at_primes (the sieve's bits); ValueError at a non-exception p >= 2^63."""
    w = spec.exceptions.get(p)
    if w is not None:
        return w
    if p >= 1 << 63:
        raise ValueError(f"p={p} is not an exception prime and not below 2^63")
    return complex(_base_values(spec.base, np.array([p], dtype=np.int64))[0])


def value_at_primes(spec: MultFnSpec, ps: np.ndarray) -> np.ndarray:
    """f(p), damped, at an ascending int64 array of primes (uint64 where they
    reach 2^63): the one f(p) recipe, equal to the sieve's values bit for bit."""
    vals = _base_values(spec.base, ps)
    for p, w in spec.exceptions.items():
        i = np.searchsorted(ps, p)
        if i < len(ps) and ps[i] == p:
            vals[i] = w
    if spec.scale_r:
        vals = vals * _damping(ps.astype(np.float64), spec.scale_r)
    return vals


def _tail(spec: MultFnSpec) -> tuple[object, set[int]]:
    """The base rule up to finitely many primes, and the primes it leaves that
    tail at: coprime is One off Q's primes, a character its modulus, table and t."""
    b = spec.base
    if isinstance(b, CoprimeIndicator):
        return One(), {p for p, _ in arith.factor(b.Q)}
    if isinstance(b, CharacterTwist):
        return (b.chi.modulus, b.chi.values.tobytes(), b.t), set()
    return b, set()


def differing_primes(f: MultFnSpec, g: MultFnSpec) -> list[int] | None:
    """The ascending primes where f and g may differ, or None when they
    differ at infinitely many primes (another tail or another scale_r)."""
    (f_tail, f_off), (g_tail, g_off) = _tail(f), _tail(g)
    if f_tail != g_tail or f.scale_r != g.scale_r:
        return None
    return sorted(f_off | g_off | f.exceptions.keys() | g.exceptions.keys())


# ---------------------------------------------------------------------------
# mode detection


def _gaussian_value(w: complex) -> bool:
    return w in (0j, 1 + 0j, -1 + 0j, 1j, -1j)


def is_real_spec(spec: MultFnSpec) -> bool:
    """True when every value f(n) is real."""
    base = spec.base
    if isinstance(base, CharacterTwist):
        if base.t != 0 or not base.chi.real:
            return False
    return all(w.imag == 0 for w in spec.exceptions.values())


def is_exact_spec(spec: MultFnSpec) -> bool:
    """True when every value lies in {0, +-1, +-i}, so sums are exact integers."""
    if spec.scale_r != 0:
        return False
    base = spec.base
    if isinstance(base, CharacterTwist):
        if base.t != 0:
            return False
        if not all(_gaussian_value(complex(v)) for v in base.chi.values):
            return False
    return all(_gaussian_value(w) for w in spec.exceptions.values())


# ---------------------------------------------------------------------------
# block evaluation


def _parity_dtype(k: int) -> type:
    """Smallest unsigned integer dtype holding k bits (k <= 64)."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if k <= np.iinfo(t).bits)


def _signed(
    bit: np.ndarray, magnitude: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """(-1)^(bit & 1) * magnitude (1.0 when None) as float64, for an
    unsigned integer array bit: only its low bit counts.

    Writing the float sign bit gives exactly the bits of
    np.where(bit & 1, -magnitude, magnitude), several times faster.
    """
    if out is None:
        out = np.empty(len(bit), dtype=np.float64)
    bits = out.view(np.uint64)
    np.left_shift(bit, np.uint64(63), out=bits, casting="unsafe")
    if magnitude is None:
        bits |= _ONE_BITS
    else:
        bits ^= magnitude.view(np.uint64)
    return out


class _Scratch:
    """Arrays reused from block to block, so that their pages stay mapped:
    glibc would trim a freed block-sized array and fault it in anew."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, dtype: type, length: int) -> np.ndarray:
        """The first `length` values of the array `name`, uninitialized."""
        a = self.arrays.get(name)
        if a is None or len(a) < length:
            a = self.arrays[name] = np.empty(length, dtype)
        return a[:length]

    def iota(self, length: int) -> np.ndarray:
        """0, 1, ..., length - 1 as int32, read-only: the one array here not
        overwritten by each use."""
        a = self.arrays.get("iota")
        if a is None or len(a) < length:
            a = self.arrays["iota"] = np.arange(length, dtype=np.int32)
        return a[:length]


def _big_primes(
    lo: int, smooth: np.ndarray, iota: np.ndarray, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the block from lo where n has a prime factor above the
    sieve, and that prime (n // smooth there), from the block's int32
    smooth part; iota is 0, 1, ... as int32.  smooth divides n < 2^31, so
    the float64 quotient is exact, and faster than an integer one; it is
    cast to int64 in place.  smooth is shifted by iota and back, both
    int32 passes: adding the int64 positions to the gathered part instead
    would go through a buffered cast, several times slower.  Only the
    block-long mask is a scratch array: keeping the shorter arrays too
    raised the peak memory of a thread pool more than it saved in page
    faults."""
    smooth -= iota  # s - i is below lo exactly where s < n = lo + i
    pos = np.flatnonzero(np.less(smooth, lo, out=scratch.get("big", np.bool_, len(smooth))))
    smooth += iota
    part = smooth.take(pos, mode="clip")
    quotient = np.add(pos, lo, dtype=np.float64)
    quotient /= part
    cof = quotient.view(np.int64)
    np.copyto(cof, quotient, casting="unsafe")
    return pos, cof


def _left_above(acc: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Where n = lo + i keeps a prime above the sieve: acc[i] < 15 (b - 1),
    b the bit length of n (see _sign_parity), written into the bool out."""
    hi = lo + len(acc)
    for b in range(lo.bit_length(), (hi - 1).bit_length() + 1):
        a, z = max(lo, 1 << (b - 1)) - lo, min(hi, 1 << b) - lo
        np.less(acc[a:z], 15 * (b - 1), out=out[a:z])
    return out


def _exception_walk(primes: list[int], lo: int, hi: int) -> Iterator[tuple[slice, int, int]]:
    """Table runs (stride, m0, count) over the multiples n = d m in [lo, hi)
    of every d > 1 built from the given primes, in ascending d.
    Laying a function of m along them in order leaves it at m = u = n / s, s
    the largest such divisor of n: every other one divides s, so s writes
    last.  The work grows with the exception-smooth d below hi."""
    ds = [1]
    for p in primes:
        for d in ds[:]:
            d *= p
            while d < hi:
                ds.append(d)
                d *= p
    for d in sorted(ds)[1:]:
        m0 = -(-lo // d)
        if m0 * d < hi:
            yield slice(m0 * d - lo, hi - lo, d), m0, (hi - 1 - m0 * d) // d + 1


class _Stream:
    """What the blocks of one stream of f over 1..x share: the exception
    prime powers, the +-1 sieve's plan and passes, built by the first block
    that needs them, and scratch arrays reused from block to block.
    base_primes must cover sqrt(x)."""

    def __init__(self, spec: MultFnSpec, x: int, base_primes: np.ndarray):
        self.spec, self.x, self.base_primes = spec, x, base_primes
        self.real = is_real_spec(spec)
        self.scratch = _Scratch()

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exception primes <= x whose values multiply in (a real spec
        skips values of 1: they change nothing), and all their powers <= x
        with the value of each, in arith.prime_powers order."""
        exc, real = self.spec.exceptions, self.real
        ps = np.array(sorted(p for p, w in exc.items() if p <= self.x and not (real and w == 1)),
                      dtype=np.int64)
        q, p = arith.prime_powers(ps, self.x)
        w = [exc[v].real if real else exc[v] for v in p.tolist()]
        return ps, q, np.array(w, dtype=np.float64 if real else np.complex128)

    @cached_property
    def unit_table(self) -> np.ndarray:
        """A complex character's table times 1+0j: each value with the
        signed zeros the product with an all-ones array gives it."""
        return self.spec.base.chi.values * (1 + 0j)

    @cached_property
    def passes(self) -> tuple[arith.SievePass, ...]:
        """The +-1 base's sieve pass (see _sign_parity): Liouville's log
        weights, or Rademacher's signed smooth part."""
        base = self.spec.base
        plan = arith.PowerPlan.of(self.base_primes, self.spec.exceptions, self.x)
        if isinstance(base, Liouville):  # odd weights; even at the extra, exception primes
            weights = 2 * np.rint(8 * np.log2(plan.primes)).astype(np.int64) + ~plan.extra
            return (arith.SievePass.of(plan, weights, np.add, np.uint16),)
        minus = (_rademacher_minus(base.seed, plan.primes) == 1) & ~plan.extra
        return (arith.SievePass.of(plan, np.where(minus, -plan.primes, plan.primes),
                                   np.multiply, np.int32),)


def _sign_parity(stream: _Stream, lo: int, hi: int) -> np.ndarray:
    """A +-1 base's sign over [lo, hi), exception values aside: the low bit
    of each value, in a scratch array, is 1 where f(n) is negative.

    n = s c, with s the part of n over the primes the block sieves (every
    prime <= sqrt(hi - 1), the exception primes and the pre-sieved ones) and
    c either 1 or one prime above sqrt(hi - 1): two would exceed hi - 1.

    Liouville sieves one uint16 accumulator.  Each prime power dividing n
    adds the odd weight 2 round(8 log2 p) + 1, or the even weight
    2 round(8 log2 p) when p is an exception prime, so the low bit is the
    parity of Omega(n) over the non-exception primes of s.  A weight lies
    within [16 log2 p - 1, 16 log2 p + 2], so with Omega(s) <= log2 s,
    16 log2 s - log2 s <= acc <= 18 log2 s.  Let b be the bit length of n
    (2^(b-1) <= n < 2^b) and h = log2(hi - 1):
      - c = 1: acc >= 15 log2 n >= 15 (b - 1);
      - c > 1: s < 2^b / sqrt(hi - 1), so acc < 18 (b - h/2), at most
        15 (b - 1) whenever 3b + 15 <= 9h.  As b <= h + 1, that holds for
        hi > 8; below, the one n with s > 1 and c > 1 is 6 = 2 * 3, with
        acc <= 17 < 30.  s = 1 gives acc = 0 < 15 (b - 1), as b >= 2.
    So c > 1 exactly where acc < 15 (b - 1) (_left_above), which flips the
    parity.  The gap between the two bounds grows with h: near 1e9 it is
    over 160 weight units.  acc <= 18 log2 n < 540 fits in uint16.

    Rademacher sieves one int32 product, the smooth part with the sign
    riding in it: each power p^k dividing n multiplies it by -p where p's
    hashed sign is -1 and by p elsewhere (an exception prime included).  A
    parity that XORs p's bit once per power dividing n and this product's
    factor (-1) once per power carry the same parity, so the product is
    negative exactly where f(s) is.  Its magnitude is s, which divides n
    <= STREAM_LIMIT < 2^31, so no partial product leaves int32.  The sign
    is read off into the parity (np.less, a bool viewed as uint8), np.abs
    makes the product s again in place, and s finds c, whose hashed sign
    flips the parity.  RademacherSeeds keeps an unsigned smooth part and
    per-group parity words, as one sign bit holds only one seed.
    """
    length = hi - lo
    scratch = stream.scratch
    base = stream.spec.base
    if isinstance(base, Liouville):
        (log,) = stream.passes
        acc = log(lo, scratch.get("acc", np.uint16, length))
        acc ^= _left_above(acc, lo, scratch.get("left", np.bool_, length))
        return acc
    (signed,) = stream.passes
    smooth = signed(lo, scratch.get("smooth", np.int32, length))
    bits = np.less(smooth, 0, out=scratch.get("parity", np.bool_, length)).view(np.uint8)
    pos, cof = _big_primes(lo, np.abs(smooth, out=smooth), scratch.iota(length), scratch)
    bits[pos] ^= _rademacher_minus(base.seed, cof, cof.view(np.uint64)).astype(np.uint8)
    return bits


def _eval_block(stream: _Stream, lo: int, hi: int) -> np.ndarray:
    """f(n) for n in [lo, hi) of the stream's spec, a fresh complex128 (or
    float64 when real) array; the block lies in 1..x.

    Blocks are independent: nothing about earlier ranges is needed, and
    what the stream keeps (its plans, tables and scratch) is the same for
    every block.  No step works per value where residues and strides fix
    the result: characters copy their period, the coprime indicator zeroes
    the strides of Q's primes below hi, and +-1 bases lay a table over
    arith.SIEVE_PERIOD, stride the other prime powers of one per-stream
    plan, and divide only where a prime above the sieve remains
    (_sign_parity).

    Exceptions never divide n: their values multiply along the strides of
    their prime powers (_Stream.factors).  Characters and the twist need
    chi(u) and log u, u being n with the exception primes divided out.  The
    multiples of an exception-smooth d are n = d m for consecutive m, so
    along d's stride chi(m) is a run of the table and u an arange; laid in
    ascending d, the largest such divisor of n writes last and leaves u.
    _exception_walk lists those strides.  +-1 bases sieve the exception
    primes with no sign (an even log weight, or a positive factor), and the
    coprime indicator leaves their strides to the exception values.

    Complex products are written np.multiply(fresh, factor, out=fresh), the
    order numpy's temporary elision gives `factor * fresh` in a large block:
    its complex multiply rounds differently with the operands swapped, and
    elision swaps them only for temporaries of 2^14 or more values, so the
    order is fixed here whatever the block length.  numpy also multiplies a
    one-value array into itself by a scalar loop that rounds otherwise, so
    a one-value block (and a lone multiple in arith.stride_fold) takes a
    fresh output, as _twisted does: no bit follows the block layout.

    A complex block with no exception below hi has no product to take, but
    its values are those of one by 1+0j, which clears some signed zeros.
    A character lays its table times 1+0j (_Stream.unit_table) in place of
    multiplying the block: in (a+bi)(1+0i) every product is exact, so any
    numpy loop, fused or not, gives each value the same bits, signed zeros
    included.  A +-1 base's complex values are (+-1, +0), which 1+0j leaves
    as they are.
    """
    spec, real = stream.spec, stream.real
    length = hi - lo
    base = spec.base
    dtype = np.float64 if real else np.complex128
    exception_primes = sorted(p for p in spec.exceptions if p < hi)

    # mult is the product of exception values, None without any below hi
    factors, powers, values = stream.factors
    multiplied = len(factors) > 0 and factors[0] < hi
    mult = np.ones(length, dtype=dtype) if multiplied else None
    if multiplied:
        arith.stride_fold(mult, lo, powers, values, np.multiply)

    if isinstance(base, (Liouville, RandomRademacher)):
        out = _signed(_sign_parity(stream, lo, hi))
        if not real:
            out = out.astype(np.complex128)
        if mult is not None:
            out = np.multiply(out, mult, out=out if length > 1 else None)
    elif isinstance(base, (One, CoprimeIndicator)):
        out = mult if multiplied else np.ones(length, dtype=dtype)
        for p in _tail(spec)[1] - spec.exceptions.keys():  # Q's primes
            out[-lo % p :: p] = 0
    else:  # CharacterTwist
        chi = base.chi
        table = chi.values.real if real else chi.values  # .real: a float64 view
        out = arith.periodic(table if real or multiplied else stream.unit_table, lo, length)
        u = np.arange(lo, hi, dtype=np.float64) if base.t else None
        if exception_primes:
            q = chi.modulus
            # a run holds at most half the block, so with q <= length each is
            # a slice of one copy of the table laid that long
            periods = arith.periodic(table, 0, q + (length + 1) // 2) if q <= length else None
            iota = np.arange((length + 1) // 2, dtype=np.float64) if u is not None else None
            for idx, m0, count in _exception_walk(exception_primes, lo, hi):
                out[idx] = (arith.periodic(table, m0, count) if periods is None
                            else periods[m0 % q : m0 % q + count])
                if u is not None:
                    np.add(iota[:count], m0, out=u[idx])
        if mult is not None:
            out = np.multiply(out, mult, out=out if length > 1 else None)
        if u is not None:
            out = _twisted(out, u, base.t)

    if spec.scale_r:  # a real factor: its operand order cannot change bits
        out = out * _damping(np.arange(lo, hi, dtype=np.float64), spec.scale_r)
    return out


def _twisted(vals: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """vals * u^(it) as cos + i sin of t log u (the bits of np.exp(1j t log u)),
    twist first, using up the float64 array u.  numpy multiplies a one-value
    array into itself by a scalar loop that rounds otherwise, so a lone value
    gets a fresh output."""
    np.log(u, out=u)
    u *= t
    twist = np.empty(len(u), dtype=np.complex128)
    np.cos(u, out=twist.real)
    np.sin(u, out=twist.imag)
    return np.multiply(twist, vals, out=twist if len(u) > 1 else None)


def _damping(n: np.ndarray, r: float) -> np.ndarray:
    """n^(-r) as exp(-r log n), computed in place in the float64 array n."""
    np.log(n, out=n)
    n *= -r
    return np.exp(n, out=n)


def block_length(x: int) -> int:
    """Values per block when streaming f(1..x).

    BLOCK up to x near 1.7e7, then the power of two at or above 64 sqrt(x), so
    the per-block Python loop over the pi(sqrt x) base primes stays small
    next to the block's array work.  A power of two >= CHUNK keeps the
    compensated-sum chunks on the same n whatever the length.  The layout is
    a pure performance choice: f(n) has the same bits in any block of any
    length from any start (_eval_block), and sum_blocks fixes its summation
    order apart from the blocks, so no float result follows it.
    """
    return max(BLOCK, 1 << (64 * math.isqrt(x) - 1).bit_length())


def _layout(x: int, block: int | None = None, start: int = 1) -> tuple[list, np.ndarray]:
    """The [lo, hi) blocks of at most `block` values (default
    block_length(x)) laid from `start` to x, and the base primes up to
    sqrt(x) that sieve every one of them."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > STREAM_LIMIT:
        raise CapacityError(f"x={x} exceeds the streaming limit {STREAM_LIMIT}")
    if not 1 <= start <= x + 1:
        raise ValueError(f"start must lie in 1..{x + 1}, got {start}")
    block = block or block_length(x)
    ranges = [(lo, min(lo + block, x + 1)) for lo in range(start, x + 1, block)]
    return ranges, arith.primes_upto(math.isqrt(x))


def iter_blocks(
    spec: MultFnSpec,
    x: int,
    block: int | None = None,
    start: int = 1,
    squarefree: bool = False,
) -> Iterator[np.ndarray]:
    """Yield f(start..x) in consecutive blocks of at most `block` values
    (default block_length(x)), laid from `start`; with `squarefree`, each
    value is multiplied by mu^2(n)."""
    ranges, base_primes = _layout(x, block, start)
    stream = _Stream(spec, x, base_primes)
    for lo, hi in ranges:
        blk = _eval_block(stream, lo, hi)
        if squarefree:
            np.multiply(blk, arith.squarefree_block(lo, hi, base_primes), out=blk)
        yield blk


@dataclass(eq=False)
class SeedBlock:
    """One block of RademacherSeeds: the sign parities of every seed.

    Bit i % 64 of words[i // 64] is 1 where seed i's value is negative; damp
    is n^(-scale_r) over the block, or None when scale_r is 0.
    """

    words: list[np.ndarray]
    damp: np.ndarray | None

    def __len__(self) -> int:
        return len(self.words[0])

    def values(self, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """Seed i's f(n) over the block as float64, written into `out` when
        given (a float64 array of the block's length)."""
        word = self.words[i >> 6]
        return _signed((word >> word.dtype.type(i & 63)) & 1, self.damp, out)


def thread_cap() -> int:
    """Worker cap: MULTSUM_THREADS when set, else the CPU count."""
    raw = os.environ.get("MULTSUM_THREADS", "").strip()
    try:
        cap = int(raw) if raw else os.cpu_count() or 1
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MULTSUM_THREADS must be a positive integer, got {raw!r}")
    return cap


def _evaluated_ahead(fn: Callable[[int], T], count: int, workers: int) -> Iterator[T]:
    """Yield fn(0), ..., fn(count - 1) in order while a pool of `workers`
    threads evaluates the next ones, at most workers + 1 results alive."""
    if workers <= 1:
        yield from map(fn, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque[Future[T]] = deque()
        for k in range(count):
            pending.append(pool.submit(fn, k))
            if len(pending) > workers:
                yield pending.popleft().result()
        yield from (f.result() for f in pending)


class RademacherSeeds:
    """f_s(n) = eps_s(n) n^(-scale_r) over 1..x for many seeds s, where eps_s
    is the RandomRademacher(seed=s) function.

    All seeds share one prime-power plan.  Each block lays its smooth part
    and the primes above the sieve once; each 64-seed group then lays only
    its parity words, from its own table over arith.SIEVE_PERIOD and
    strides.  The prime left above the sieve at each n gets every seed's
    sign from one word table per 64 seeds, built once over the primes up to
    top = min(x, SIGN_TABLE_BYTES // bytes per entry over all tables - 1) by
    the same hash; primes above top are hashed per block.  Blocks are
    independent and laid out exactly as iter_blocks lays them, so seed i's
    values equal its own spec's.
    """

    def __init__(self, seeds: list[int], scale_r: float, x: int):
        if not seeds:
            raise ValueError("need at least one seed")
        _check_scale_r(scale_r)
        self.ranges, self.base_primes = _layout(x)
        self.groups = [list(seeds[j : j + 64]) for j in range(0, len(seeds), 64)]
        self.scale_r = scale_r
        self.exact = scale_r == 0
        dtypes = [_parity_dtype(len(group)) for group in self.groups]
        self.top = min(x, SIGN_TABLE_BYTES // sum(np.dtype(dt).itemsize for dt in dtypes) - 1)
        ps = arith.primes_upto(self.top)
        # tables[g][p]: group g's sign word at each prime p <= top, 0 elsewhere
        self.tables = []
        for group, dt in zip(self.groups, dtypes):
            table = np.zeros(self.top + 1, dtype=dt)
            table[ps] = _sign_words(group, ps, dt)
            self.tables.append(table)
        plan = arith.PowerPlan.of(self.base_primes, (), x)
        self.smooth = arith.SievePass.of(plan, plan.primes, np.multiply, np.int32)
        self.parity = [arith.SievePass.of(plan, self._words(g, plan.primes), np.bitwise_xor, dt)
                       for g, dt in enumerate(dtypes)]
        self.iota = np.arange(self.ranges[0][1] - self.ranges[0][0], dtype=np.int32)
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.ranges)

    def _words(self, g: int, ps: np.ndarray) -> np.ndarray:
        """Group g's sign words at the primes ps: read from the table up to
        top, hashed above it."""
        words = self.tables[g].take(ps, mode="clip")
        above = np.flatnonzero(ps > self.top)
        if len(above):
            words[above] = _sign_words(self.groups[g], ps[above], words.dtype)
        return words

    def _carry_bound(self, lo: int) -> float:
        """Twice a bound on the sum of n^(-scale_r) over n < lo, which holds
        |hi| + |lo| of a fresh state's running total before lo with room for
        every rounding.  The terms decrease, so the sum from n = 2 to m = lo
        - 1 is at most the integral of t^(-r) from 1 to m."""
        m = lo - 1
        if m <= 1:
            return 2.0 * m
        r, log_m = self.scale_r, math.log(m)
        return 2.0 * (1 + (log_m if r == 1 else math.expm1((1 - r) * log_m) / (1 - r)))

    def _scratch(self) -> _Scratch:
        """The calling thread's scratch arrays."""
        if not hasattr(self._local, "scratch"):
            self._local.scratch = _Scratch()
        return self._local.scratch

    def block(self, k: int) -> SeedBlock:
        """Evaluate the k-th block; safe to call from several threads.  The
        smooth part and the primes above the sieve are laid once, in the
        thread's scratch arrays; each group then lays only its parity words,
        fresh arrays, as the SeedBlock keeps them."""
        lo, hi = self.ranges[k]
        scratch = self._scratch()
        pos, cof = _big_primes(lo, self.smooth(lo, scratch.get("smooth", np.int32, hi - lo)),
                               self.iota[: hi - lo], scratch)
        words = []
        for g, parity in enumerate(self.parity):
            word = parity(lo, np.empty(hi - lo, parity.table.dtype))
            word[pos] ^= self._words(g, cof)
            words.append(word)
        return SeedBlock(words, _damping(np.arange(lo, hi, dtype=np.float64), self.scale_r)
                         if self.scale_r else None)

    def scans(self, checkpoints: list[int]) -> Iterator[list[BlockScan]]:
        """Every seed's BlockScan of each block (seeds in order), block by
        block.  A pool of thread_cap() threads evaluates and scans the
        next blocks, so the caller's ProfileStates only apply them, in block
        order: the results never depend on the thread count.  A damped
        family's float bounds allow a fresh state's running total
        (_carry_bound), and its sums of |f(n)| over each group are taken
        once per block from the damping, which |f(n)| equals bit for bit,
        for every seed, as is the block's Pieces."""
        count = sum(map(len, self.groups))

        def scan_block(k: int) -> list[BlockScan]:
            blk = self.block(k)
            lo, n = self.ranges[k][0], len(blk)
            pieces = _pieces(lo, n, checkpoints, self.exact)
            # one buffer per thread, reused for every seed and block: the
            # prefix sums go CHUNK values before the values, out of place,
            # as only then does numpy release the GIL in an accumulate
            buf = self._scratch().get("values", np.float64, n + CHUNK)
            vals, prefix = buf[CHUNK:], buf[:n]
            spread = None if self.exact else _group_sums(blk.damp)
            return [_scan(blk.values(i, vals), pieces, self.exact, prefix, False,
                          self._carry_bound(lo), spread)[0] for i in range(count)]

        return _evaluated_ahead(scan_block, len(self), min(thread_cap(), len(self)))


def sum_blocks(
    spec: MultFnSpec,
    x: int,
    term: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    squarefree: bool = False,
) -> complex:
    """sum_{n<=x} term(n, f(n)), or sum f(n) without a term; f is multiplied
    by mu^2(n) when `squarefree`, and term gets n as float64.

    The float result is, per lane, a NeumaierSum of np.sum over each
    SUM_SPAN values of 1..x, replayed over iter_blocks' default blocks:
    numpy halves n > PAIRWISE_LEAF values at n // 2 - n // 2 % 8 (pinned by
    tests/test_accum.py), and so does the walk.  A part inside one block is
    that slice's np.sum; only a leaf across a block edge is copied together.
    np.sum is 0.0 plus its tree, and that 0.0 can only turn a -0.0 partial
    into +0.0, which the span's own 0.0 + clears: every bit is that of np.sum
    over the span, whatever the blocks.  Memory follows the blocks, not
    SUM_SPAN.
    """
    def lanes() -> Iterator[tuple[np.ndarray, ...]]:
        lo = 1
        for blk in iter_blocks(spec, x, squarefree=squarefree):
            if term is not None:
                blk = term(np.arange(lo, lo + len(blk), dtype=np.float64), blk)
            lo += len(blk)
            yield (blk.real, blk.imag) if np.iscomplexobj(blk) else (blk,)

    blocks = lanes()
    block, block_lo = next(blocks), 1

    def offset(lo: int) -> int:
        """lo's offset in the block that holds it, read on to that block."""
        nonlocal block, block_lo
        while lo - block_lo >= len(block[0]):
            block_lo += len(block[0])
            block = next(blocks)
        return lo - block_lo

    def pairwise(lo: int, n: int) -> list[float]:
        """Each lane's pairwise sum of its values at lo..lo + n - 1."""
        off = offset(lo)
        if off + n <= len(block[0]):
            return [float(np.sum(lane[off : off + n])) for lane in block]
        if n > PAIRWISE_LEAF:
            half = n // 2 - n // 2 % 8
            return [a + b for a, b in zip(pairwise(lo, half), pairwise(lo + half, n - half))]
        pieces = []
        while n:
            off = offset(lo)
            take = min(n, len(block[0]) - off)
            pieces.append([lane[off : off + take] for lane in block])
            lo, n = lo + take, n - take
        return [float(np.sum(np.concatenate(lane))) for lane in zip(*pieces)]

    re, im = NeumaierSum(), NeumaierSum()
    for lo in range(1, x + 1, SUM_SPAN):
        for total, v in zip((re, im), pairwise(lo, min(SUM_SPAN, x + 1 - lo))):
            total.add(0.0 + v)
    return complex(re.total(), im.total())


@dataclass(eq=False)
class SievedRange:
    """f(1..N) materialized: values[n] = f(n), values[0] = 0."""

    spec: MultFnSpec
    N: int
    values: np.ndarray
    exact: bool
    real: bool


def eval_range(spec: MultFnSpec, N: int) -> SievedRange:
    """Materialize f(1..N).  Capacity: N <= EVAL_CAPACITY (memory bound)."""
    if not 1 <= N <= EVAL_CAPACITY:
        raise CapacityError(f"N={N} outside 1..{EVAL_CAPACITY} for eval_range")
    real = is_real_spec(spec)
    values = np.zeros(N + 1, dtype=np.float64 if real else np.complex128)
    pos = 1
    for blk in iter_blocks(spec, N):
        values[pos : pos + len(blk)] = blk
        pos += len(blk)
    return SievedRange(
        spec=spec, N=N, values=values, exact=is_exact_spec(spec), real=real
    )


# ---------------------------------------------------------------------------
# partial-sum profiles


@dataclass(eq=False)
class PartialSumProfile:
    """Running data of M_f(x) = sum_{n<=x} f(n) at requested checkpoints.

    sums[i] = M_f(checkpoints[i]); sups[i] = max_{y <= checkpoints[i]} |M_f(y)|.
    """

    spec: MultFnSpec
    checkpoints: list[int]
    sums: list[complex]
    sups: list[float]
    exact: bool


@dataclass(eq=False)
class Pieces:
    """The layout a scan of the block f(lo), ..., f(lo + length - 1) reads,
    shared by every spec of one block and exactness.  A segment runs from
    one checkpoint's next value to the next checkpoint (or the block's
    end); a piece is a segment cut at the edges of the accum.CHUNK-value
    chunks of accum.compensated_cumsum (an exact spec's block is one chunk).
    """

    lo: int
    length: int
    here: list[int]  # the checkpoints in the block
    ends: np.ndarray  # the offset of each of them in the block
    segments: np.ndarray  # the offset each segment starts at
    cuts: np.ndarray  # the offset each piece starts at
    piece: np.ndarray  # the piece each checkpoint ends
    chunk: np.ndarray  # the chunk of each piece


def _pieces(lo: int, n: int, checkpoints: list[int], exact: bool) -> Pieces:
    """The Pieces of the n-value block from lo, checkpoints ascending.
    With exact the block is one chunk, so its pieces are its segments: the
    layout a complex block's scan, which reads only the segments, asks for
    too."""
    first = bisect_right(checkpoints, lo - 1)
    here = checkpoints[first : bisect_right(checkpoints, lo - 1 + n, first)]
    ends = np.array(here, dtype=np.int64) - lo
    after = ends[ends + 1 < n] + 1
    segments = np.union1d(0, after)
    cuts = segments if exact else np.union1d(np.arange(0, n, CHUNK), after)
    return Pieces(lo, n, here, ends, segments, cuts, np.searchsorted(cuts, ends, "right") - 1,
                  cuts // (n if exact else CHUNK))


@dataclass(eq=False)
class BlockScan:
    """The carry-free half of scanning the real values of the block that
    `pieces` lays out: what ProfileState.apply needs to move past them.

    With c the prefix sum within a chunk and s the running total at the
    chunk's start, the scan's partial sum is M = fl(c + s), which is
    compensated_cumsum's value (an exact spec's c and s are integers below
    2^53, so M = c + s exactly).  Rounding to nearest is monotone, so over
    a piece max fl(c + s) = fl(max c + s) and min fl(c + s) = fl(min c +
    s), and since |y| = max(y, -y), max |M| over the piece is max(fl(top +
    s), -fl(bottom + s)): applied with its carry, a BlockScan gives the
    bits of the full prefix array.

    Prefix sums are laid out only where a segment's max or min can lie.
    An exact spec's top, bottom and at come from 64-value group sums
    (_group_extremes) and are those of the full prefix all the same.  A
    float spec accumulates only the chunks whose group bounds reach a
    segment's max or min, and the chunks a checkpoint ends in
    (_float_chunks); a piece of any other chunk holds neither, and has top
    -inf and bottom +inf, so that it adds nothing to the running sup.
    Those bounds allow a running total before the block, |re.hi| +
    |re.lo|, of at most `carry`, which apply checks.

    A complex block has no BlockScan: max |M| over a piece does not follow
    from each lane's max and min, so ProfileState.feed lays both running
    sums out in one pass and takes np.hypot only near each segment's
    largest |M|^2.
    """

    pieces: Pieces  # shared by every scan of the block
    sums: list[float]  # np.sum of each chunk (an exact spec: the block's total)
    top: np.ndarray  # max of c over each piece
    bottom: np.ndarray  # min of c over each piece
    at: np.ndarray  # c at each checkpoint in the block
    carry: float = math.inf  # the largest running total the bounds allow


GROUP = 64  # values per group of a real block's bounded scan


def _scan(
    values: np.ndarray, pieces: Pieces, exact: bool, out: np.ndarray | None,
    full_prefix: bool, carry: float = math.inf, spread: np.ndarray | None = None,
) -> tuple[BlockScan, bool]:
    """The BlockScan of the real block `values`, a contiguous float64 array
    laid out by pieces (from _pieces with the same exact), and whether the
    whole block's prefix was laid out.  Float bounds allow a running total
    of at most `carry` before the block (none when inf) and take the sum of
    |f(n)| over each GROUP values from `spread` when given.

    A float block's within-chunk prefix sums c go into out, a contiguous
    float64 array of the same length, or values itself when None, but only
    in the chunks that can hold a segment's max or min or a checkpoint
    (_float_chunks).  An exact block's extremes come from its group sums
    (_group_extremes), and out is left as it is.  Either way, where that
    would lay out more than half of the block (its chunks, or an exact
    block's groups), or with full_prefix, the whole block's prefix is laid
    out instead: a float block's into out; an exact block's in int8
    groups (_prefix_extremes), with out left as it is, unless its first
    value is -0.0, whose run of -0.0 prefixes only np.cumsum into out
    keeps.  out is scratch: what it holds afterwards is not read.  numpy
    releases the GIL in an accumulate only out of place, and in a 2-d one
    only past 500 rows, so a pool thread overlaps others only when out is
    not values.  out may also start CHUNK values before values
    in one buffer, as each prefix sum then lands on a value already read: a
    float block's per-chunk accumulates (accum.chunk_sums) write each
    chunk's prefix over the chunk before it.
    """
    if out is None:
        out = values
    segments, cuts, ends = pieces.segments, pieces.cuts, pieces.ends
    laid = None
    if exact:
        grouped = None if full_prefix else _group_extremes(values, cuts, ends)
        if grouped is not None:
            total, top, bottom, at = grouped
            return BlockScan(pieces, [total], top, bottom, at), False
        # a first value of -0.0 starts a run of -0.0 prefixes, which the
        # integers of _prefix_extremes cannot carry
        if not (values[0] == 0 and np.signbit(values[0])):
            total, top, bottom, at = _prefix_extremes(values, cuts, ends)
            return BlockScan(pieces, [total], top, bottom, at), True
        np.cumsum(values, out=out)
        sums = [float(out[-1])]
    else:
        laid = None if full_prefix else _float_chunks(values, segments, ends, carry, spread)
        (sums,) = chunk_sums(values, out, laid)
    top, bottom = np.maximum.reduceat(out, cuts), np.minimum.reduceat(out, cuts)
    if laid is None:
        return BlockScan(pieces, sums, top, bottom, out[ends]), True
    # a piece of a chunk left out (whose reduceat read stale values of out)
    # holds neither extreme of its segment
    out_of_reach = np.ones(len(sums), dtype=bool)
    out_of_reach[laid] = False
    out_of_reach = out_of_reach[pieces.chunk]
    top[out_of_reach], bottom[out_of_reach] = -math.inf, math.inf
    return BlockScan(pieces, sums, top, bottom, out[ends], carry), False


def _reach(
    up: np.ndarray, down: np.ndarray, e: np.ndarray, segments: np.ndarray,
    forced: np.ndarray, per: int,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """The bound rule of both bounded scans.  Group j's prefix sums lie in
    [down[j], up[j]] and end at e[j]; the segment [segments[k], segments[k
    + 1]) (the last one running to the block's end) holds the ends of the
    groups held[k] up to held[k + 1], held = segments // GROUP.  A group
    can hold its segment's max only when up passes the segment's max of e,
    and its min only when down passes the min of e.  Returns the ascending
    indices of the units of `per` groups that hold such a group, or are in
    forced, or None when that is more than half the units; and the max and
    min of e over each segment (-inf and inf for one with no group end).

    A group across a segment's start is compared with the segment its end
    lies in, so a caller forces the unit of each checkpoint's end.
    """
    held = segments // GROUP
    count = np.diff(held, append=len(e))
    e_top = np.where(count > 0, np.maximum.reduceat(e, held), -math.inf)
    e_bottom = np.where(count > 0, np.minimum.reduceat(e, held), math.inf)
    lay = (up > np.repeat(e_top, count)) | (down < np.repeat(e_bottom, count))
    if per > 1:
        lay = np.logical_or.reduceat(lay, np.arange(0, len(lay), per))
    lay[forced] = True
    units = np.flatnonzero(lay)
    return (None if 2 * len(units) > len(lay) else units), e_top, e_bottom


def _group_extremes(
    values: np.ndarray, cuts: np.ndarray, ends: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray] | None:
    """An exact block's total, the max and min of its prefix sums c over
    each piece [cuts[k], cuts[k + 1]) (the last one running to its end), and
    c at ends; None when more than half the GROUP-value groups would be
    laid out.

    A reduce-then-scan after G. E. Blelloch, "Prefix sums and their
    applications" (1990).  The values lie in {-1, 0, 1}, so inside a group
    of L <= GROUP values with total g, following the prefix s, c stays in
    [s - (L - g)/2, s + (L + g)/2], and GROUP in place of L only widens it.
    The group ends' prefixes e, a cumsum of the group totals, are values c
    takes.  So a piece's max and min lie in the groups whose bounds pass
    the extremes of e over the piece, or at those e (_reach); only those
    groups, and the ones a piece starts in or a checkpoint ends in, have
    their prefix laid out, by a row cumsum plus s.  Every group outside them
    lies inside one piece.  Each add is of integers below 2^53, so exact,
    and an exact sum is -0.0 only when every term is: every e and laid c
    has the bits of np.cumsum(values), with the first group's s = -0.0,
    which adds exactly.  Where this returns None, _scan takes the whole
    prefix from int8 group prefixes (_prefix_extremes), or from
    np.cumsum when the first value is -0.0.
    """
    n = len(values)
    g = np.add.reduceat(values, np.arange(0, n, GROUP))
    e = np.cumsum(g)
    s = np.concatenate(([-0.0], e[:-1]))
    held = cuts // GROUP
    rows, e_top, e_bottom = _reach(s + (GROUP + g) / 2, s - (GROUP - g) / 2, e, cuts,
                                   np.concatenate((held, ends // GROUP)), 1)
    if rows is None:
        return None
    full = n // GROUP
    k = np.searchsorted(rows, full)  # a laid short tail group comes last
    laid = np.empty((len(rows), GROUP))
    np.take(values[: full * GROUP].reshape(-1, GROUP), rows[:k], axis=0, out=laid[:k],
            mode="clip")
    if k < len(rows):  # padded with -0.0, its last c repeats
        laid[k] = -0.0
        laid[k, : n - full * GROUP] = values[full * GROUP :]
    np.cumsum(laid, axis=1, out=laid)
    laid += s[rows, None]
    flat = laid.ravel()
    starts = np.searchsorted(rows, held) * GROUP + cuts % GROUP
    at = flat[np.searchsorted(rows, ends // GROUP) * GROUP + ends % GROUP]
    return (float(e[-1]), np.maximum(np.maximum.reduceat(flat, starts), e_top),
            np.minimum(np.minimum.reduceat(flat, starts), e_bottom), at)


def _prefix_extremes(
    values: np.ndarray, cuts: np.ndarray, ends: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """What _group_extremes returns, with every group laid out: an exact
    block's total, the max and min of its prefix sums c over each piece
    [cuts[k], cuts[k + 1]) (the last one running to its end), and c at
    ends, all as float64 with the values of np.cumsum(values).

    The values lie in {-1, 0, 1}, so a prefix sum inside one GROUP-value
    group lies in [-GROUP, GROUP] and fits int8.  Group j of the block is
    column j of a (GROUP, m) int8 array (a short last group padded with
    zeros, so its last sum repeats), and six Hillis-Steele steps (W. D.
    Hillis and G. L. Steele, "Data parallel algorithms", CACM 29, 1986)
    turn each column into its prefix sums, every step one add over whole
    rows.  A group's max, min and total are then reductions over columns,
    and its start's prefix s an int64 cumsum of the totals.  A piece's
    extremes are those of the groups wholly inside it (max of s + group
    max), and of the rows it holds of the one or two groups it starts
    and ends in; every sum is an integer, so exact.  np.cumsum gives the
    same integers, and -0.0 only in a run of -0.0 values from the first
    one on, which _scan leaves to np.cumsum.
    """
    n = len(values)
    m = -(-n // GROUP)
    c, spare = np.empty((2, GROUP, m), dtype=np.int8)
    flat = spare.reshape(-1)  # the values as int8, in block order
    np.copyto(flat[:n], values, casting="unsafe")
    flat[n:] = 0
    np.copyto(c, flat.reshape(m, GROUP).T)
    step = 1
    while step < GROUP:
        np.add(c[step:], c[:-step], out=spare[step:])
        spare[:step] = c[:step]
        c, spare = spare, c
        step *= 2
    s = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(c[-1], out=s[1:])
    last = np.append(cuts[1:], n) - 1  # each piece's last value
    first_group, last_group = cuts // GROUP, last // GROUP
    # the rows of the group a piece starts in (with those of the group it
    # ends in, when that is another) as float64 columns, -inf or inf
    # outside the piece
    groups = np.concatenate((first_group, last_group))
    rows = np.arange(GROUP)[:, None]
    start = np.concatenate((cuts % GROUP, np.zeros_like(cuts)))
    two = last_group > first_group
    stop = np.concatenate((np.where(two, GROUP - 1, last % GROUP),
                           np.where(two, last % GROUP, -1)))
    inside = (rows >= start) & (rows <= stop)
    edge = c[:, groups] + s[groups].astype(np.float64)
    k = len(cuts)
    top = np.where(inside, edge, -math.inf).max(axis=0)
    bottom = np.where(inside, edge, math.inf).min(axis=0)
    top, bottom = np.maximum(top[:k], top[k:]), np.minimum(bottom[:k], bottom[k:])
    # the groups strictly between: a reduceat over [first + 1, last) of each,
    # kept only where that is not empty
    spans = np.minimum(np.stack((first_group + 1, last_group), axis=1).ravel(), m - 1)
    between = last_group - first_group > 1
    mid_top = np.maximum.reduceat(s[:-1] + c.max(axis=0), spans)[::2]
    mid_bottom = np.minimum.reduceat(s[:-1] + c.min(axis=0), spans)[::2]
    top = np.where(between, np.maximum(top, mid_top), top)
    bottom = np.where(between, np.minimum(bottom, mid_bottom), bottom)
    at = s[ends // GROUP] + c[ends % GROUP, ends // GROUP]
    return float(s[-1]), top, bottom, at.astype(np.float64)


def _group_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each GROUP values of the contiguous array values, the last
    group possibly short, in an order numpy chooses: they only bound."""
    full = len(values) - len(values) % GROUP
    sums = np.einsum("ij->i", values[:full].reshape(-1, GROUP))
    return np.append(sums, np.sum(values[full:])) if full < len(values) else sums


def _float_chunks(
    values: np.ndarray, segments: np.ndarray, ends: np.ndarray, carry: float,
    spread: np.ndarray | None,
) -> np.ndarray | None:
    """The ascending indices of the CHUNK-value chunks of a float real block
    whose prefix sums must be laid out for every segment's max and min of
    M, and for each checkpoint's M: the chunks holding a group whose
    bounds reach its segment's max or min of e (_reach), and those a
    checkpoint ends in.  None when that is more than half the chunks, or
    no bound is finite.  The running total before the block must be at
    most `carry`, |hi| + |lo| of its Neumaier pair.  spread is the sum of
    |f(n)| over each group, computed here when None.

    Let u = 2^-53, gamma_k = k u / (1 - k u) <= 2 k u, A the exact sum of
    |f| over the block, K = carry, H = 2 (K + A), X = hi + lo the carry,
    P_i the exact prefix sum of the block to i, n_c its number of chunks
    and m of groups.  The scan's partial sum at i in chunk r is M_i =
    fl(c_i + t_r), c_i the chunk's np.add.accumulate (a left-to-right
    chain) and t_r = fl(hi_r + lo_r) the Neumaier pair after the np.sum
    totals sigma_j of the chunks before r.  Bounds after N. J. Higham, "The
    accuracy of floating point summation" (1993): c_i errs from its exact
    sum by at most gamma_(CHUNK-1) times the sum of |f| over the chunk, and
    sigma_j, a pairwise sum (any order), likewise.  Each Neumaier step
    adds sigma_j to hi exactly (two_sum) and rounds its error into lo, by at
    most u |lo| <= u H; rounding hi_r + lo_r and c_i + t_r costs u H each
    (|lo|, t_r and M_i all stay below H).  So |M_i - (X + P_i)| <= E =
    gamma_(CHUNK-1) A + (n_c + 2) u H.

    Computed alone, the group sums g and a of f and |f| (any order) err by
    gamma_(GROUP-1) times a group's sum of |f|, and e = cumsum(g), the
    group ends' prefix sums, and s, the one before each group, by eps =
    gamma_(GROUP+m) A.  Group j's exact prefix sums run inside [Q - (A_j -
    G_j)/2, Q + (A_j + G_j)/2], Q the exact prefix before it and A_j, G_j
    its exact sums of |f| and f: its positives and negatives can be summed
    apart.  fl((a + g) / 2) errs from (A_j + G_j)/2 by gamma_(2 GROUP) A
    plus 2^-1075 for halving a subnormal, and fl(s + that) by 3 u A more.
    A group whose M reaches its segment's max M* has X + Q + (A_j + G_j)/2
    + E >= M* >= M at the segment's group ends >= X + e - eps - E, so its
    computed up = fl(s + fl((a + g)/2)) >= e_top - (2 E + 2 eps + gamma_(2
    GROUP) A + 3 u A + 2^-1075), and fl(up + delta) > e_top once delta (1
    - u) exceeds that and the 3 u A rounding of the last add: in all, under
    u (4 CHUNK + 4 m + 8 GROUP + 4 n_c + 10) A + 4 (n_c + 2) u K + 2^-1075.
    delta takes 2 u (4 CHUNK + 4 m + 8 GROUP + 4 n_c + 16) times the float
    sum of a, which is at least A / 2, plus 8 (n_c + 2) u K and the least
    normal float; the slack covers u delta and the roundings of delta
    itself.  The min is the mirror image.
    """
    n = len(values)
    g = _group_sums(values)
    a = _group_sums(np.abs(values)) if spread is None else spread
    e = np.cumsum(g)
    s = np.concatenate(([0.0], e[:-1]))
    chunks = -(-n // CHUNK)
    delta = 2.0**-53 * (2 * (4 * CHUNK + 4 * len(e) + 8 * GROUP + 4 * chunks + 16)
                        * float(np.sum(a)) + 8 * (chunks + 2) * carry) + _NORMAL
    if not delta < math.inf:
        return None
    return _reach(s + (a + g) / 2 + delta, s - (a - g) / 2 - delta, e, segments,
                  ends // CHUNK, CHUNK // GROUP)[0]


NORM_MARGIN = 1e-12  # relative window below a segment's largest |M| (or |M|^2)
NORM_CAP = float(1 << 20)  # Gaussian-integer tops below this skip the window
_NORMAL = float(np.finfo(np.float64).tiny)


def _norm_sups(prefix: np.ndarray, cuts: np.ndarray, gaussian: bool = False) -> list[float]:
    """max np.hypot(M.real, M.imag) over each segment [cuts[j], cuts[j+1])
    of the contiguous complex array prefix (the last one running to its
    end), bit for bit, with np.hypot taken only where it can reach that max.

    The window is w = np.abs(prefix), one pass and one 8-byte array per
    value.  numpy's complex abs is not np.hypot: it gives other bits at
    about a third of the values, but always within 2 ulp of np.hypot, and
    infinite or NaN exactly where np.hypot is (pinned by
    test_numpy_complex_abs_stays_near_hypot).  So at the position where
    hypot is largest, h*, w >= pred^2(h*), and every w <= succ^2(h*): w
    there is at most four float steps below the segment's largest w.  When
    that largest w is a normal float, a step is at most 2^-52 of it, so w
    there is at least (1 - 2^-50) times it, far inside NORM_MARGIN =
    1e-12, and only the positions within that margin are taken.  A
    segment whose largest w is below the normal range (all zero, or
    subnormal), or not finite, takes np.hypot over all of it: its bound is
    -inf, and ~(w < bound) keeps NaNs too.  Every segment keeps
    its largest w, so each has a position taken.  All segments go through
    the same few array calls, however many there are.  w is a fresh
    array: a retained buffer would only add to the peak memory of every
    stream.

    With gaussian, prefix holds Gaussian integers (an exact spec's sums),
    and the window is q = re*re + im*im, one square of each float64 of
    prefix and one strided add: |M|^2 within a factor 1 +- 4u (u = 2^-53;
    two rounded squares of integers and one rounded sum of nonnegative
    terms), while np.hypot rounds |M| within a factor 1 +- 2u, so where
    hypot is largest q is at least (1 - 20u) times the segment's largest q.
    When every segment's largest q is an integer below NORM_CAP, q is exact
    there and the margin holds only q equal to it, so every position taken
    is a representation of that top as a^2 + b^2.  When all of them give
    one np.hypot (_hypot_of_norm), that is the segment's max, found with no
    gather; otherwise every segment goes the general way.
    """
    if gaussian:
        squares = prefix.view(np.float64) * prefix.view(np.float64)
        window = np.add(squares[::2], squares[1::2])
        del squares
    else:
        window = np.abs(prefix)
    tops = np.maximum.reduceat(window, cuts)
    if gaussian and (tops < NORM_CAP).all() and (tops == np.floor(tops)).all():
        sups = [_hypot_of_norm(int(t)) for t in tops.tolist()]
        if None not in sups:
            return sups
    re, im = prefix.real, prefix.imag
    bound = np.where((tops >= _NORMAL) & (tops < math.inf), tops * (1 - NORM_MARGIN), -math.inf)
    if len(cuts) > 1:  # one bound per position; a single one broadcasts
        bound = np.repeat(bound, np.diff(cuts, append=len(prefix)))
    near = np.flatnonzero(~(window < bound))
    del window, bound  # 2-4 MB not needed by the gathers below, which would add to them
    return np.maximum.reduceat(np.hypot(re[near], im[near]),
                               np.searchsorted(near, cuts)).tolist()


def _hypot_of_norm(t: int) -> float | None:
    """The one np.hypot(x, y) over the integers x, y with x^2 + y^2 = t, in
    either order and with either sign, or None when two give other bits or
    there is none."""
    a = np.arange(math.isqrt(t // 2) + 1)
    b = np.sqrt(t - a * a).astype(np.int64)
    hit = a * a + b * b == t
    x = np.concatenate((a[hit], b[hit])).astype(np.float64)
    y = np.concatenate((b[hit], a[hit])).astype(np.float64)
    h = np.hypot(np.concatenate((x, -x, x, -x)), np.concatenate((y, y, -y, -y)))
    return float(h[0]) if len(h) and (h == h[0]).all() else None


@dataclass(eq=False)
class ProfileState:
    """Running partial-sum scan state; supports checkpointed resume.

    re and im carry the real and imaginary sums so far.  An exact spec's
    partial sums are integers of at most STREAM_LIMIT < 2^53, so they add
    exactly and lo stays 0.
    """

    exact: bool
    real: bool
    n_done: int = 0
    sup: float = 0.0
    re: NeumaierSum = field(default_factory=NeumaierSum)
    im: NeumaierSum = field(default_factory=NeumaierSum)
    # whether the stream's real blocks lay out their whole prefix (a
    # bounded sum, whose every group or chunk can reach the max): set by the
    # first real block fed, and not part of snapshot()
    full_prefix: bool | None = field(default=None, init=False, repr=False)

    def feed(
        self, blk: np.ndarray, checkpoints: list[int]
    ) -> list[tuple[int, complex, float]]:
        """Consume the contiguous block of values following n_done, which it
        overwrites; returns (c, M(c), max_{y<=c} |M(y)|) for each checkpoint
        c inside it.  A real block is scanned and applied: its prefix
        sums are laid out only in the groups (exact) or chunks (float) whose
        bounds reach a segment's max or min, or that a checkpoint ends in,
        with float bounds for the running total held now.  A real stream's
        first block settles how all of its blocks are scanned: when it
        would lay out more than half of its groups (_group_extremes) or
        chunks (_float_chunks), every block lays out its whole prefix with
        no group sums.

        A complex block's running sums M go into the block itself, both lanes
        in one pass.  An exact spec adds the carry into the first value and
        runs one complex cumsum: every partial sum is an integer below 2^53,
        so each add is exact.  A float spec runs accum.compensated_cumsum
        with the (re, im) carry pair.  The running sup takes np.hypot only
        near the largest |M|^2 of each segment between checkpoints, and for
        an exact spec at most once per segment where its sums stay small
        (_norm_sups).
        """
        complex_block = np.iscomplexobj(blk)
        # a complex block reads only the segments: no chunk cuts its pieces
        pieces = _pieces(self.n_done + 1, len(blk), checkpoints, self.exact or complex_block)
        if not complex_block:
            scan, full = _scan(blk, pieces, self.exact, None, bool(self.full_prefix),
                               abs(self.re.hi) + abs(self.re.lo))
            if self.full_prefix is None:
                self.full_prefix = full
            return self.apply(scan)
        if self.exact:
            blk[0] += complex(self.re.hi, self.im.hi)
            np.cumsum(blk, out=blk)
            self.re.hi, self.im.hi = float(blk[-1].real), float(blk[-1].imag)
        else:
            compensated_cumsum(blk, (self.re, self.im), blk)
        # max |M| over the segments ending at each checkpoint, plus the rest
        # of the block, instead of a block-long running max
        sups = list(accumulate(_norm_sups(blk, pieces.segments, self.exact), max,
                               initial=self.sup))[1:]
        self.sup = sups[-1]
        self.n_done += len(blk)
        return [(c, complex(blk[i]), sup)
                for c, i, sup in zip(pieces.here, pieces.ends.tolist(), sups)]

    def apply(self, scan: BlockScan) -> list[tuple[int, complex, float]]:
        """Move past a real block from its BlockScan: the carry's chain
        through its chunks and the running sup.  Returns the rows of feed."""
        pieces = scan.pieces
        if pieces.lo != self.n_done + 1:
            raise ValueError(f"block from n={pieces.lo} does not follow n_done={self.n_done}")
        if not abs(self.re.hi) + abs(self.re.lo) <= scan.carry:
            raise ValueError(f"running total before n={pieces.lo} exceeds the {scan.carry} "
                             "its scan's bounds allow")
        s = np.array(chunk_starts(scan.sums, self.re))[pieces.chunk]  # per piece
        run = np.maximum.accumulate(np.maximum(scan.top + s, -(scan.bottom + s))).tolist()
        rows = [(c, complex(m, 0.0), max(self.sup, run[i])) for c, m, i in
                zip(pieces.here, (scan.at + s[pieces.piece]).tolist(), pieces.piece.tolist())]
        self.sup = max(self.sup, run[-1])
        self.n_done += pieces.length
        return rows

    def snapshot(self) -> dict:
        """JSON-safe resume state; floats stored exactly as hex."""
        return {"n_done": self.n_done, "sup": self.sup.hex(), "exact": self.exact,
                "real": self.real, "re": [self.re.hi.hex(), self.re.lo.hex()],
                "im": [self.im.hi.hex(), self.im.lo.hex()]}

    @classmethod
    def restore(cls, d: dict) -> "ProfileState":
        """The state a snapshot() holds; ValueError when a field is missing
        or ill-typed, the sup is not a finite nonnegative float, a sum is not
        finite, or an exact state's sums are not integers below 2^53 held
        in hi alone (lo == 0), as every exact scan keeps them."""
        types = {"n_done": int, "exact": bool, "real": bool, "re": list, "im": list}
        try:
            if any(type(d[k]) is not t for k, t in types.items()) or d["n_done"] < 0:
                raise TypeError("a field is ill-typed, or n_done is negative")
            (re_hi, re_lo), (im_hi, im_lo) = d["re"], d["im"]
            sup, *sums = map(float.fromhex, (d["sup"], re_hi, re_lo, im_hi, im_lo))
            if not (0 <= sup < math.inf and all(map(math.isfinite, sums))):
                raise ValueError("the sup is NaN, negative or infinite, or a sum is not finite")
            if d["exact"] and not all(abs(hi) < 2**53 and hi == int(hi) and lo == 0
                                      for hi, lo in (sums[:2], sums[2:])):
                raise ValueError("an exact state's sums are not integers below 2^53")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed resume state ({exc!r})") from None
        return cls(d["exact"], d["real"], d["n_done"], sup,
                   NeumaierSum(*sums[:2]), NeumaierSum(*sums[2:]))


def check_checkpoints(checkpoints: list[int], x: int) -> None:
    """Refuse empty, unsorted or out-of-range (outside 1..x) checkpoints."""
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints[0] < 1 or checkpoints[-1] > x:
        raise ValueError(f"checkpoints must lie in 1..{x}")


def stream_profile(
    spec: MultFnSpec, x: int, checkpoints: list[int], squarefree: bool = False
) -> PartialSumProfile:
    """Profile f (times mu^2(n) when `squarefree`) over 1..x without
    materializing values: one fresh ProfileState fed every block of
    iter_blocks, so the float sums are those of one compensated scan over
    1..x.  Rows are (c, M(c), max_{y<=c} |M(y)|) per checkpoint c.
    """
    check_checkpoints(checkpoints, x)
    exact = is_exact_spec(spec)
    state = ProfileState(exact, is_real_spec(spec))
    rows = [row for blk in iter_blocks(spec, x, squarefree=squarefree)
            for row in state.feed(blk, checkpoints)]
    return PartialSumProfile(
        spec=spec, checkpoints=[c for c, _, _ in rows],
        sums=[s for _, s, _ in rows], sups=[sup for _, _, sup in rows], exact=exact,
    )
