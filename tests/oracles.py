"""Slow independent references used to freeze expected values.

Everything here is deliberately naive: trial division, direct summation,
high-precision mpmath.  Library results are checked against these, never
the other way around.
"""

import math
from fractions import Fraction

import mpmath as mp
import sympy


def trial_spf(n: int) -> int:
    """Smallest prime factor by trial division."""
    if n < 2:
        raise ValueError(n)
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    while n > 1:
        p = trial_spf(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def brute_crt(congruences, limit: int):
    """Smallest nonnegative x meeting every (a, m), by scanning; None if
    nothing below limit works."""
    for x in range(limit):
        if all(x % m == a for a, m in congruences):
            return x
    return None


def naive_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in trial_factorize(n)) if n > 1 else n == 1


def modified_value(chi, r: int, z: complex, n: int) -> complex:
    """chi_{r,z}(n) from a full factorization."""
    val = 1 + 0j
    for p, e in sympy.factorint(n).items():
        base = z if p == int(p) and int(p) == r else complex(chi(int(p)))
        val *= base**e
    return val


def direct_modified_sum(chi, r: int, z: complex, x: int) -> complex:
    """Sigma(x) by evaluating every n <= x from its factorization."""
    return sum(modified_value(chi, r, z, n) for n in range(1, x + 1))


def spec_value(spec, n: int) -> complex:
    """f(n) for a MultFnSpec via sympy factorization, no sieving."""
    from multsum.multfun import prime_unit_value

    val = 1 + 0j
    for p, e in sympy.factorint(n).items():
        val *= prime_unit_value(spec, int(p)) ** e
    if spec.scale_r:
        val *= n ** (-spec.scale_r)
    return val


def hurwitz_l(s: complex, chi, dps: int = 30) -> complex:
    """L(s, chi) through mpmath's Hurwitz zeta; valid for Re(s) > 0 when chi
    is non-principal."""
    with mp.workdps(dps):
        q = chi.modulus
        acc = mp.mpc(0)
        for a in range(1, q):
            c = complex(chi(a))
            if c:
                acc += mp.mpc(c) * mp.zeta(mp.mpc(s), mp.mpf(a) / q)
        return complex(mp.mpc(q) ** (-mp.mpc(s)) * acc)


def averaged_l(s: complex, chi, K: int = 200_000) -> complex:
    """L(s, chi) from brute partial sums averaged over one character period.

    A completely different scheme from Euler-Maclaurin: the period average
    cancels the leading oscillation of the tail, leaving O(K^{-Re s - 1}).
    """
    import numpy as np

    q = chi.modulus
    n = np.arange(1, K + q, dtype=np.float64)
    coef = chi.values[np.arange(1, K + q, dtype=np.int64) % q]
    terms = coef * np.exp(-complex(s) * np.log(n))
    partials = np.cumsum(terms)
    return complex(np.mean(partials[K - 1 : K - 1 + q]))


def mp_zeta(s: complex, dps: int = 30) -> complex:
    with mp.workdps(dps):
        return complex(mp.zeta(mp.mpc(s)))


def ruzsa_density(exceptions: dict[int, Fraction]) -> Fraction:
    """Mean density of One perturbed at finitely many primes, exactly:
    prod (1 - 1/p) / (1 - f(p)/p)."""
    c = Fraction(1)
    for p, w in exceptions.items():
        c *= (1 - Fraction(1, p)) / (1 - Fraction(w) / p)
    return c


def naive_profile(values, checkpoints, exact: bool, resume_at: int = 0, carry=(0.0, 0.0)):
    """(sums, sups) at checkpoints from a materialized f(1..x), values[n] = f(n).
    A float spec's real sums start from the Neumaier pair `carry` (hi, lo),
    as a restored state's do.

    One prefix sum over the whole range, then a running max of |M|.  Exact
    specs use a plain cumsum (integers below 2^53 add exactly).  Float specs
    use accum.compensated_cumsum, whose chunks are laid from n = 1 (and from
    n = resume_at + 1, carry kept, as the CLI's profile lays them when it
    resumes from a snapshot: iter_blocks from n_done + 1 into
    ProfileState.feed).  stream_profile reproduces the scan from n = 1: its
    blocks hold block_length(x) values, a multiple of accum.CHUNK.  Blocks
    of other lengths lay their chunks from each block start, so their float
    sums can differ.
    """
    import numpy as np
    from multsum.accum import NeumaierSum, compensated_cumsum

    vals = np.asarray(values)[1:]
    parts = [vals.real, vals.imag]
    if exact:
        re, im = (np.cumsum(p) for p in parts)
    else:
        re, im = (
            np.concatenate([compensated_cumsum(np.ascontiguousarray(seg), lane_carry)
                            for seg in (p[:resume_at], p[resume_at:])])
            for p, lane_carry in zip(parts, (NeumaierSum(*carry), NeumaierSum()))
        )
    absval = np.hypot(re, im) if np.iscomplexobj(vals) else np.abs(re)
    run_max = np.maximum.accumulate(absval)
    sums = [complex(re[c - 1], im[c - 1]) for c in checkpoints]
    sups = [float(run_max[c - 1]) for c in checkpoints]
    return sums, sups


def chunked_cumsum(values, carry):
    """accum.compensated_cumsum one CHUNK at a time: np.cumsum of the chunk
    shifted by the running total before it, which then absorbs np.sum of
    the chunk by two-sum.  `carry` is updated in place."""
    import numpy as np
    from multsum.accum import CHUNK, NeumaierSum

    out = np.empty(len(values), dtype=np.float64)
    for lo in range(0, len(values), CHUNK):
        chunk = values[lo : lo + CHUNK]
        out[lo : lo + len(chunk)] = np.cumsum(chunk) + (carry.hi + carry.lo)
        step = NeumaierSum(carry.hi, carry.lo)
        step.add(float(np.sum(chunk)))
        carry.hi, carry.lo = step.hi, step.lo
    return out


def chunk_rows(values):
    """accum.chunk_sums the row-wise way: one 2-d np.cumsum(axis=1) over
    the full CHUNK-value rows and a 1-d one over the partial tail, and per
    lane (the contiguous real and imaginary parts of a complex array)
    np.sum(axis=1) of the rows, then np.sum of the tail."""
    import numpy as np
    from multsum.accum import CHUNK

    n = len(values)
    full = n - n % CHUNK
    prefix = np.empty_like(values)
    prefix[:full] = np.cumsum(values[:full].reshape(-1, CHUNK), axis=1).ravel()
    prefix[full:] = np.cumsum(values[full:])
    lanes = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    sums = []
    for lane in map(np.ascontiguousarray, lanes):
        row_sums = np.sum(lane[:full].reshape(-1, CHUNK), axis=1).tolist()
        sums.append(row_sums + ([float(np.sum(lane[full:]))] if full < n else []))
    return prefix, sums


def prefix_chain(values) -> list[float]:
    """Prefix sums of a float sequence by a left-to-right Python += chain."""
    out, c = [], None
    for v in map(float, values):
        c = v if c is None else c + v
        out.append(c)
    return out


def exact_prefix_scan(values, cuts, ends):
    """An exact real block's total, the max and min of np.cumsum(values)
    over each piece [cuts[k], cuts[k + 1]) (the last one running to the
    end), and the prefix at ends: the float64 whole-prefix scan that
    multfun._scan's integer whole-prefix path must reproduce."""
    import numpy as np

    c = np.cumsum(np.asarray(values, dtype=np.float64))
    return [float(c[-1])], np.maximum.reduceat(c, cuts), np.minimum.reduceat(c, cuts), c[ends]


def pairwise_sum(values) -> float:
    """np.sum of float64 values its documented way: 0.0 plus a pairwise sum
    that splits n > 128 values at n // 2 less n // 2 % 8, sums a leaf of 8
    to 128 values in 8 interleaved running sums joined as ((r0 + r1) + (r2
    + r3)) + ((r4 + r5) + (r6 + r7)) and then adds its last n % 8 values,
    and sums fewer than 8 in order."""
    vals = list(map(float, values))

    def part(lo: int, n: int) -> float:
        if n < 8:
            res = 0.0
            for v in vals[lo : lo + n]:
                res += v
            return res
        if n <= 128:
            r = vals[lo : lo + 8]
            i = 8
            while i < n - n % 8:
                for j in range(8):
                    r[j] += vals[lo + i + j]
                i += 8
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for v in vals[lo + i : lo + n]:
                res += v
            return res
        half = n // 2 - n // 2 % 8
        return part(lo, half) + part(lo + half, n - half)

    return 0.0 + part(0, len(vals))


def span_sums(values, span: int) -> complex:
    """The sum of a materialized array the way multfun.sum_blocks defines
    it: per lane, a NeumaierSum of np.sum over each `span` consecutive
    values."""
    import numpy as np
    from multsum.accum import NeumaierSum

    totals = [NeumaierSum(), NeumaierSum()]
    lanes = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    for total, lane in zip(totals, lanes):
        for lo in range(0, len(lane), span):
            total.add(float(np.sum(lane[lo : lo + span])))
    return complex(totals[0].total(), totals[1].total())


def residue_values(spec, lo: int, hi: int):
    """f(n) for lo <= n < hi of an undamped, untwisted character or coprime
    spec, the per-value way: u is n with the exception primes divided out,
    f(n) is chi.values[u mod q] (or [gcd(u, Q) == 1]) times the exception
    values, with np.mod and np.gcd on every n."""
    import numpy as np
    from multsum.multfun import CoprimeIndicator

    u = np.arange(lo, hi, dtype=np.int64)
    mult = np.ones(len(u), dtype=np.complex128)
    for p, w in spec.exceptions.items():
        hit = np.flatnonzero(np.mod(u, p) == 0)
        while len(hit):
            u[hit] //= p
            mult[hit] *= w
            hit = hit[np.mod(u[hit], p) == 0]
    base = spec.base
    if isinstance(base, CoprimeIndicator):
        vals = (np.gcd(u, base.Q) == 1).astype(np.complex128)
    else:
        vals = base.chi.values[np.mod(u, base.chi.modulus)]
    return vals * mult


def sieve_cofactor(lo: int, hi: int, primes):
    """n with every listed prime divided out, for lo <= n < hi, by integer
    division along the strides of each prime's powers below hi."""
    import numpy as np

    u = np.arange(lo, hi, dtype=np.int64)
    for p in map(int, primes):
        pk = p
        while pk < hi:
            u[-lo % pk :: pk] //= p
            pk *= p
    return u
