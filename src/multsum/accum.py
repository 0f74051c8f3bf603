"""Compensated summation helpers.

Float prefix sums over long ranges are done in chunks: numpy does the
within-chunk cumsum, and a Neumaier-style (sum, carry) pair propagates the
running total across chunk boundaries so the error stays near one ulp of
the result instead of growing with the number of chunks.
"""

from __future__ import annotations

import numpy as np

CHUNK = 4096


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact float addition: returns (s, err) with s + err == a + b exactly."""
    s = a + b
    bp = s - a
    err = (a - (s - bp)) + (b - bp)
    return s, err


class NeumaierSum:
    """Streaming compensated accumulator for real floats."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    def add(self, x: float) -> None:
        s, err = two_sum(self.hi, x)
        self.hi = s
        self.lo += err

    def total(self) -> float:
        return self.hi + self.lo


def chunk_sums(values: np.ndarray, out: np.ndarray) -> list[float]:
    """The carry-free half of compensated_cumsum: writes each CHUNK-value
    chunk's own prefix sums into out[:len(values)], which may be values
    itself, and returns np.sum of each chunk, in order.  The full chunks are
    done as rows of one 2-d array, which gives the same bits as one call per
    chunk."""
    n = len(values)
    full = n - n % CHUNK
    rows = values[:full].reshape(-1, CHUNK)
    sums = np.sum(rows, axis=1).tolist()
    np.cumsum(rows, axis=1, out=out[:full].reshape(-1, CHUNK))
    if full < n:
        sums.append(float(np.sum(values[full:])))
        np.cumsum(values[full:], out=out[full:n])
    return sums


def chunk_starts(sums: list[float], carry: NeumaierSum) -> list[float]:
    """The running total before each chunk sum in turn; carry absorbs them all."""
    starts = []
    for s in sums:
        starts.append(carry.hi + carry.lo)
        carry.add(s)
    return starts


def compensated_cumsum(values: np.ndarray, carry: NeumaierSum | None = None) -> np.ndarray:
    """Prefix sums of a 1-d real array with a compensated cross-chunk carry.

    If `carry` is given, it is the running total before values[0]; it is
    updated in place so consecutive calls chain across blocks.

    Each CHUNK-value chunk is summed by np.cumsum and np.sum (chunk_sums)
    and shifted by the carry at its start (chunk_starts).
    """
    if carry is None:
        carry = NeumaierSum()
    n = len(values)
    full = n - n % CHUNK
    out = np.empty(n, dtype=np.float64)
    starts = chunk_starts(chunk_sums(values, out), carry)
    body = out[:full].reshape(-1, CHUNK)
    body += np.array(starts[: len(body)])[:, None]
    if full < n:
        out[full:] += starts[-1]
    return out
