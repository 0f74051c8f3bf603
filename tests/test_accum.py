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
