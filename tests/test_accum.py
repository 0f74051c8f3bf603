"""Tests for accum: compensated prefix sums."""

import numpy as np
import pytest

import oracles
from multsum.accum import CHUNK, NeumaierSum, compensated_cumsum


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


def test_numpy_lane_rules():
    """The numpy behaviour the two-lane scan is built on.  If an upgrade
    breaks one of these, complex scans stop matching the per-lane ones:
    change accum, do not loosen this test.  (chunk_sums takes real sums of
    each lane because a complex np.sum's bits are not promised to be them;
    nothing here pins how it rounds.)"""
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
    lane = z.reshape(-1, CHUNK).real
    assert same(np.sum(lane, axis=1), np.sum(re.reshape(-1, CHUNK), axis=1)), (
        "np.sum over strided .real rows differs from the contiguous rows")
    assert same(np.sum(z[:1000].imag), np.sum(im[:1000])), (
        "np.sum over a strided .imag view differs from its contiguous copy")
