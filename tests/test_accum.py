"""Tests for accum: compensated prefix sums."""

import math

import numpy as np
import pytest

import oracles
from multsum.accum import CHUNK, NeumaierSum, chunk_sums, compensated_cumsum


@pytest.mark.parametrize("seed", range(4))
def test_compensated_cumsum_matches_chunk_loop(seed):
    """The row-wise 2-d form gives the bits of one cumsum and one sum per
    chunk, and leaves the same carry, over whole, partial and empty tails."""
    rng = np.random.default_rng(seed)
    lengths = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 64 * CHUNK, 3 * CHUNK + 5]
    lengths += rng.integers(1, 80 * CHUNK, 8).tolist()
    for n in lengths:
        n = int(n)
        damp = np.exp(-0.25 * np.log(np.arange(1, n + 1, dtype=np.float64)))
        for values in (
            rng.standard_normal(n),
            rng.choice([-1.0, 1.0], n) * damp,
            rng.standard_normal(n) * 1e12 + rng.standard_normal(n),
        ):
            hi = float(rng.standard_normal()) * 10.0 ** int(rng.integers(0, 9))
            lo = float(rng.standard_normal()) * 1e-10
            got_carry, want_carry = NeumaierSum(hi, lo), NeumaierSum(hi, lo)
            got = compensated_cumsum(values, got_carry)
            want = oracles.chunked_cumsum(values, want_carry)
            assert got.tobytes() == want.tobytes(), n
            assert (got_carry.hi, got_carry.lo) == (want_carry.hi, want_carry.lo), n


@pytest.mark.parametrize("seed", range(3))
def test_complex_cumsum_is_two_real_lanes(seed):
    """A complex128 array and an (re, im) carry pair give, in one pass, the
    bits and carries of two real compensated_cumsum calls, one per lane;
    written over the input the result is the same."""
    rng = np.random.default_rng(100 + seed)
    lengths = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 64 * CHUNK, 3 * CHUNK + 5]
    lengths += rng.integers(1, 40 * CHUNK, 4).tolist()
    for n in lengths:
        n = int(n)
        damp = np.exp(-0.25 * np.log(np.arange(1, n + 1, dtype=np.float64)))
        values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * damp
        values.imag[::7] *= 1e9  # lanes of different scales
        start = [(float(rng.standard_normal()) * 1e6, float(rng.standard_normal()) * 1e-10)
                 for _ in range(2)]
        want_carry = [NeumaierSum(*s) for s in start]
        want = [oracles.chunked_cumsum(np.ascontiguousarray(lane), c)
                for lane, c in zip((values.real, values.imag), want_carry)]
        for out in (None, values.copy()):
            got_carry = tuple(NeumaierSum(*s) for s in start)
            src = values if out is None else out
            got = compensated_cumsum(src, got_carry, out)
            assert got.dtype == np.complex128 and (out is None or got is out)
            assert got.real.tobytes() == want[0].tobytes(), n
            assert got.imag.tobytes() == want[1].tobytes(), n
            assert [(c.hi, c.lo) for c in got_carry] == [(c.hi, c.lo) for c in want_carry], n


def _layouts(values):
    """(values, out) pairs: a fresh out; a copy of values as its own out;
    one buffer holding a copy, with out starting CHUNK values before it."""
    n = len(values)
    same = values.copy()
    buf = np.empty(n + CHUNK, dtype=values.dtype)
    buf[CHUNK:] = values
    return {"fresh": (values, np.empty_like(values)), "in_place": (same, same),
            "shifted": (buf[CHUNK:], buf[:n])}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("seed", range(2))
def test_chunk_sums_matches_rows_in_every_layout(seed, dtype):
    """Per-chunk accumulates give the bits of the 2-d row cumsum and the
    row sums of each lane, into a fresh out, in place, and into the one
    buffer whose out starts CHUNK values before the values."""
    rng = np.random.default_rng(200 + seed)
    lengths = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 64 * CHUNK, 3 * CHUNK + 5]
    lengths += rng.integers(1, 70 * CHUNK, 4).tolist()
    for n in map(int, lengths):
        damp = np.exp(-0.25 * np.log(np.arange(1, n + 1, dtype=np.float64)))
        values = rng.standard_normal(n) * damp
        if dtype is np.complex128:
            values = values + 1j * rng.standard_normal(n) * 1e9
        want_prefix, want_sums = oracles.chunk_rows(values)
        for name, (src, out) in _layouts(values).items():
            sums = chunk_sums(src, out)
            assert out.tobytes() == want_prefix.tobytes(), (n, name)
            assert sums == want_sums, (n, name)


@pytest.mark.parametrize("case", ["after", "one_before", "two_chunks_before",
                                  "reversed", "other_stride"])
def test_chunk_sums_refuses_other_overlaps(case):
    """An out overlapping values other than in place or CHUNK values before
    it would be overwritten before it is read: refused, nothing written."""
    n = 3 * CHUNK + 5
    buf = np.arange(2 * n + 2 * CHUNK, dtype=np.float64)
    values, out = {
        "after": (buf[:n], buf[CHUNK:]),
        "one_before": (buf[1 : n + 1], buf[:n]),
        "two_chunks_before": (buf[2 * CHUNK : 2 * CHUNK + n], buf[:n]),
        "reversed": (buf[:n], buf[n - 1 :: -1]),
        "other_stride": (buf[: 2 * n : 2], buf[:n]),
    }[case]
    before = buf.copy()
    with pytest.raises(ValueError, match="overlaps"):
        chunk_sums(values, out)
    assert buf.tobytes() == before.tobytes()


def test_numpy_lane_rules():
    """The numpy behaviour the two-lane, per-chunk scan is built on.  If an
    upgrade breaks one of these, scans stop matching the per-lane or the
    row-wise ones: change accum, do not loosen this test.  (chunk_sums
    takes real sums of each lane because a complex np.sum's bits are not
    promised to be them; nothing here pins how it rounds.)"""
    rng = np.random.default_rng(11)
    z = (rng.standard_normal(64 * CHUNK) + 1j * rng.standard_normal(64 * CHUNK))
    z *= np.exp(-0.3 * np.log(np.arange(1, len(z) + 1)))
    re, im = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)

    def same(a, b):
        return a.tobytes() == b.tobytes()

    one = np.cumsum(z)
    assert same(one.real, np.cumsum(re)) and same(one.imag, np.cumsum(im)), (
        "complex128 np.cumsum no longer equals per-lane real cumsums")
    rows = np.cumsum(z.reshape(-1, CHUNK), axis=1)
    assert same(rows.real, np.cumsum(re.reshape(-1, CHUNK), axis=1)) and same(
        rows.imag, np.cumsum(im.reshape(-1, CHUNK), axis=1)), (
        "complex128 np.cumsum along axis 1 no longer equals per-lane real cumsums")
    for arr in (z, re):
        blocks = np.cumsum(arr.reshape(-1, CHUNK), axis=1)
        assert all(same(np.add.accumulate(arr[r * CHUNK : (r + 1) * CHUNK]), blocks[r])
                   for r in range(len(blocks))), (
            "a row's 1-d np.add.accumulate no longer equals that row of the 2-d cumsum")
    lane = z.reshape(-1, CHUNK).real
    assert same(np.sum(lane, axis=1), np.sum(re.reshape(-1, CHUNK), axis=1)), (
        "np.sum over strided .real rows differs from the contiguous rows")
    assert same(np.sum(z[:1000].imag), np.sum(im[:1000])), (
        "np.sum over a strided .imag view differs from its contiguous copy")


def test_numpy_summation_orders():
    """The summation orders multfun._float_chunks' rounding margin and
    multfun.sum_blocks' walk rest on.  np.add.accumulate over a CHUNK-value
    chunk is a left-to-right chain (the recursive summation whose error
    bound the margin takes), out of place and in place; float64 np.sum is
    numpy's pairwise split, over contiguous values and over the strided
    .real of a complex array alike, which sum_blocks replays over its
    blocks.  If an upgrade breaks one of these, change the code that relies
    on it, do not loosen this test."""
    rng = np.random.default_rng(29)
    chunk = rng.standard_normal(CHUNK) * np.exp(rng.uniform(-40, 40, CHUNK))
    chunk[::7] = -0.0
    chunk[5::11] = 1e-300
    want = np.array(oracles.prefix_chain(chunk))
    assert np.add.accumulate(chunk).tobytes() == want.tobytes(), (
        "np.add.accumulate is no longer a left-to-right chain")
    same = chunk.copy()
    np.add.accumulate(same, out=same)
    assert same.tobytes() == want.tobytes(), "an in-place accumulate changed order"
    for n in [0, 1, 7, 8, 9, 127, 128, 129, 1000, CHUNK - 1, CHUNK, CHUNK + 1,
              64 * CHUNK + 13]:
        v = rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))
        z = v + 1j * rng.standard_normal(n)
        want = oracles.pairwise_sum(v).hex()
        assert float(np.sum(v)).hex() == want, f"np.sum of {n} contiguous values"
        assert float(np.sum(z.real)).hex() == want, f"np.sum of {n} strided .real values"
    assert float(np.sum(np.full(9, -0.0))).hex() == oracles.pairwise_sum([-0.0] * 9).hex()


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How many float64 steps lie between the nonnegative a and b."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_numpy_complex_abs_stays_near_hypot():
    """The bound multfun._norm_sups' window rests on: numpy's complex abs
    lies within 2 ulp of np.hypot of the two lanes, and is infinite or NaN
    exactly where np.hypot is.  Random values at exponents -300 to 300,
    lanes nearly equal, one lane zero (either sign), subnormal values,
    and every pairing of inf, NaN and finite lanes.  If an upgrade breaks
    this, change _norm_sups' window or its proof, do not loosen this test."""
    def lanes(re, im):
        z = np.empty(len(re), dtype=np.complex128)
        z.real, z.imag = re, im
        return z

    rng = np.random.default_rng(30)
    parts = []
    for e in range(-300, 301, 30):
        re, im = rng.standard_normal((2, 4096)) * 10.0**e
        zero = np.zeros(4096)
        parts += [lanes(re, im), lanes(re, re * (1 + rng.uniform(-1e-15, 1e-15, 4096))),
                  lanes(re, -re), lanes(re, zero), lanes(zero, re), lanes(-zero, re),
                  lanes(re, -zero)]
    tiny = rng.integers(0, 2**52, 4096).astype(np.float64) * 2.0**-1074  # subnormal
    parts += [lanes(tiny, tiny[::-1]), lanes(tiny, np.zeros(4096)), lanes(tiny, tiny * 2.0**30)]
    z = np.concatenate(parts)
    a, h = np.abs(z), np.hypot(z.real, z.imag)
    assert np.isfinite(h).all()
    assert int(ulps_apart(a, h).max()) <= 2, "np.abs strays more than 2 ulp from np.hypot"
    odd = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.5, 1e-310, 1e308])
    re, im = np.meshgrid(odd, odd)
    a, h = np.abs(lanes(re.ravel(), im.ravel())), np.hypot(re.ravel(), im.ravel())
    assert np.array_equal(np.isnan(a), np.isnan(h)) and np.array_equal(np.isinf(a), np.isinf(h))
    finite = np.isfinite(h)
    assert int(ulps_apart(a[finite], h[finite]).max()) <= 2
