"""Compensated summation helpers.

Float prefix sums over long ranges are done in chunks: numpy does the
within-chunk prefix, one 1-d accumulate per chunk so that a thread running
it out of place releases the GIL, and a Neumaier-style (sum, carry) pair
propagates the running total across chunk boundaries so the error stays
near one ulp of the result instead of growing with the number of chunks.
A complex array is two real lanes, its real and imaginary parts, scanned
in one pass with a carry each.
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


def _lanes(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real lanes of a: a itself, or the .real and .imag views of a
    complex array."""
    return (a.real, a.imag) if np.iscomplexobj(a) else (a,)


def _check_layout(values: np.ndarray, dst: np.ndarray) -> None:
    """Refuse a dst that overlaps values other than exactly in place or
    starting exactly CHUNK values before it in one contiguous buffer:
    chunk_sums writes a chunk's prefix before reading the next chunk, so
    any other overlap would silently give wrong prefixes."""
    if not np.may_share_memory(values, dst):
        return
    if dst.dtype == values.dtype and dst.strides == values.strides:
        gap = values.__array_interface__["data"][0] - dst.__array_interface__["data"][0]
        step = values.itemsize
        if gap == 0 or (gap == CHUNK * step and values.strides == (step,)):
            return
    raise ValueError(
        "chunk_sums: out overlaps values other than in place or CHUNK values before it")


def chunk_sums(
    values: np.ndarray, out: np.ndarray, laid: np.ndarray | None = None
) -> list[list[float]]:
    """The carry-free half of compensated_cumsum: writes each CHUNK-value
    chunk's own prefix sums into out[:len(values)] and returns np.sum of
    each chunk, in order, for each lane of values (one for a real array;
    the real and imaginary parts of a complex one).  All sums are taken
    before any prefix is written.  With laid, an ascending array of chunk
    indices, only those chunks' prefixes are written; the sums are those
    of every chunk all the same.

    Each chunk's prefix is one 1-d np.add.accumulate, whose bits equal that
    row of a 2-d np.cumsum(axis=1): numpy releases the GIL in an accumulate
    only past 500 outer iterations, which a 2-d one over a block's 64
    chunks never reaches, while a 1-d one releases it when its operands do
    not overlap.  So out should be a separate array, or start exactly CHUNK
    values before values in one buffer: chunk r's prefix then lands on
    chunk r - 1's values, already read (and, when chunk r - 1 is not laid,
    never read again), and no two operands of one call overlap.  out may
    also be values itself (numpy then copies each chunk first, holding the
    GIL); any other overlap raises ValueError.  The ufunc is called
    directly: np.cumsum's wrapper holds the GIL longer per call, and 64
    per-chunk np.cumsum calls ran at 0.8-1.3x in two threads against
    1.5-1.8x for these.

    A lane's sums are real np.sum calls over the strided .real or .imag
    rows, whose bits equal those of the contiguous lane.  A complex np.sum
    must not be used: its bits are not promised to be the lane sums (most
    chunks differ on numpy 2.4).  One complex accumulate gives both lanes'
    prefix sums, bit for bit those of two real ones.
    """
    n = len(values)
    dst = out[:n]
    _check_layout(values, dst)
    full = n - n % CHUNK
    rows = values[:full].reshape(-1, CHUNK)
    sums = [np.sum(lane, axis=1).tolist() for lane in _lanes(rows)]
    if full < n:
        for lane_sums, lane in zip(sums, _lanes(values[full:])):
            lane_sums.append(float(np.sum(lane)))
    for r in range(0, n, CHUNK) if laid is None else (laid * CHUNK).tolist():
        np.add.accumulate(values[r : r + CHUNK], out=dst[r : r + CHUNK])
    return sums


def chunk_starts(sums: list[float], carry: NeumaierSum) -> list[float]:
    """The running total before each chunk sum in turn; carry absorbs them all."""
    starts = []
    for s in sums:
        starts.append(carry.hi + carry.lo)
        carry.add(s)
    return starts


def compensated_cumsum(
    values: np.ndarray,
    carry: NeumaierSum | tuple[NeumaierSum, NeumaierSum],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Prefix sums of a 1-d float64 or complex128 array with a compensated
    cross-chunk carry per lane, written into out, a fresh array when None.
    out is there for the complex path: ProfileState.feed passes the block
    itself, which is then scanned in place (out must be contiguous).

    `carry` is the running total before values[0]: a NeumaierSum, or for a
    complex array an (re, im) pair of them.  It is updated in place so
    consecutive calls chain across blocks.

    Each CHUNK-value chunk is summed by np.add.accumulate and np.sum
    (chunk_sums) and shifted by the carry at its start (chunk_starts, once
    per lane).  A complex array's two lanes share one accumulate per chunk
    and one add of the complex starts, whose bits are the lane-by-lane
    results.
    """
    pair = np.iscomplexobj(values)
    n = len(values)
    full = n - n % CHUNK
    if out is None:
        out = np.empty(n, dtype=np.complex128 if pair else np.float64)
    sums = chunk_sums(values, out)
    starts = np.empty(len(sums[0]), dtype=out.dtype)
    for lane, lane_sums, lane_carry in zip(_lanes(starts), sums, carry if pair else (carry,)):
        lane[:] = chunk_starts(lane_sums, lane_carry)
    body = out[:full].reshape(-1, CHUNK)
    body += starts[: len(body), None]
    if full < n:
        out[full:n] += starts[-1]
    return out
