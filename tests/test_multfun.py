"""Tests for multfun: spec construction, sieved evaluation, profiles."""

import hashlib
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multsum import multfun
from multsum import (
    CapacityError,
    CharacterTwist,
    CoprimeIndicator,
    Liouville,
    One,
    RandomRademacher,
    build_spec,
    character_by_index,
    eval_range,
    is_exact_spec,
    is_real_spec,
    iter_blocks,
    make_spec,
    prime_unit_value,
    spec_config,
    stream_profile,
)
from multsum.accum import CHUNK, NeumaierSum
from multsum.arith import SIEVE_PERIOD, FACTOR_LIMIT, euler_phi, primes_upto, squarefree_block
from multsum.characters import DirichletCharacter
from multsum.multfun import (
    BLOCK,
    GROUP,
    NORM_CAP,
    STREAM_LIMIT,
    _Stream,
    _eval_block,
    _group_extremes,
    _hypot_of_norm,
    _norm_sups,
    _pieces,
    _scan,
    ProfileState,
    RademacherSeeds,
    block_length,
    differing_primes,
    rademacher_signs,
    sum_blocks,
    unit_pow,
    value_at_primes,
)

# first values of the frozen bases, n = 1..10
ONE_VALUES = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
COPRIME6_VALUES = [1, 0, 0, 0, 1, 0, 1, 0, 0, 0]
LIOUVILLE_VALUES = [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]
CHI4_VALUES = [1, 0, -1, 0, 1, 0, -1, 0, 1, 0]


def test_frozen_small_values(chi4):
    cases = [
        (make_spec(One()), ONE_VALUES),
        (make_spec(CoprimeIndicator(6)), COPRIME6_VALUES),
        (make_spec(Liouville()), LIOUVILLE_VALUES),
        (make_spec(CharacterTwist(chi4)), CHI4_VALUES),
    ]
    for spec, want in cases:
        got = eval_range(spec, 10).values[1:].tolist()
        assert got == want, (spec_config(spec), got)
    # the Liouville partial sum returns to zero at 10
    lam = eval_range(make_spec(Liouville()), 10)
    assert int(lam.values[1:].sum()) == 0


def test_unit_pow_gaussian_exact():
    for w in (1 + 0j, -1 + 0j, 1j, -1j, 0j):
        acc = 1 + 0j
        for k in range(1, 20):
            acc *= w
            assert unit_pow(w, k) == acc, (w, k)
    assert unit_pow(0j, 0) == 1
    # non-unit values go through binary powering
    assert abs(unit_pow(0.5 + 0j, 10) - 2.0**-10) < 1e-18


def test_eval_at_matches_eval_range(chi4, chi5):
    """eval_range agrees with f evaluated at single points n from the
    factorization of n."""
    specs = [
        make_spec(One()),
        make_spec(Liouville(), exceptions={3: 1}),
        make_spec(RandomRademacher(seed=7)),
        make_spec(CoprimeIndicator(30)),
        make_spec(CharacterTwist(chi4, t=0.5)),
        make_spec(CharacterTwist(chi5), scale_r=0.5, exceptions={2: -1}),
    ]
    N = 3000
    for spec in specs:
        rng = eval_range(spec, N)
        for n in list(range(1, 120)) + [512, 997, 1024, 2310, 2999, 3000]:
            direct = oracles.spec_value(spec, n)
            sieved = complex(rng.values[n])
            assert abs(direct - sieved) <= 1e-11 * max(1.0, abs(direct)), (
                spec_config(spec),
                n,
                direct,
                sieved,
            )


def test_matches_factorization_oracle(chi5):
    spec = make_spec(CharacterTwist(chi5, t=1.0), exceptions={3: 0.25j})
    rng = eval_range(spec, 2000)
    for n in range(1, 2001, 37):
        want = oracles.spec_value(spec, n)
        assert abs(complex(rng.values[n]) - want) < 1e-10, (n, want)


def test_exact_and_real_detection(chi4, chi5):
    from multsum import character_by_index

    chi5_complex = character_by_index(5, 1)
    cases = [
        (make_spec(One()), True, True),
        (make_spec(Liouville()), True, True),
        (make_spec(RandomRademacher(seed=1)), True, True),
        (make_spec(CharacterTwist(chi4)), True, True),
        (make_spec(CharacterTwist(chi5_complex)), True, False),
        (make_spec(CharacterTwist(chi4, t=1.0)), False, False),
        (make_spec(One(), exceptions={2: 0.5}), False, True),
        (make_spec(One(), exceptions={2: 1j}), True, False),
        (make_spec(One(), scale_r=0.5), False, True),
    ]
    for spec, exact, real in cases:
        got = (is_exact_spec(spec), is_real_spec(spec))
        assert got == (exact, real), (spec_config(spec), got)


def test_make_spec_rejects_bad_input(chi4):
    with pytest.raises(ValueError):
        make_spec(One(), exceptions={4: 1})  # composite key
    with pytest.raises(ValueError):
        make_spec(One(), exceptions={2: 1.5})  # outside the unit disc
    with pytest.raises(ValueError):
        make_spec(One(), scale_r=-0.5)
    with pytest.raises(ValueError):
        make_spec(One(), scale_r=float("nan"))
    with pytest.raises(ValueError):
        make_spec(CoprimeIndicator(0))
    with pytest.raises(ValueError):
        make_spec(CharacterTwist(chi4, t=float("inf")))
    # boundary values are allowed
    make_spec(One(), exceptions={2: -1})
    make_spec(One(), exceptions={2: 1j})


def test_build_spec_round_trip(chi4):
    configs = [
        "one",
        "liouville;scale_r=0.25",
        "rademacher:seed=11",
        "coprime:Q=60",
        "char:q=4,index=1;except=3~1~0",
        "char:q=5,index=real,t=0.5;except=2~-1~0,7~0~1",
        "one;except=2~0.5~0",
    ]
    for cfg in configs:
        spec = build_spec(cfg)
        canon = spec_config(spec)
        again = build_spec(canon)
        assert spec_config(again) == canon, cfg
        rng_a = eval_range(spec, 50)
        rng_b = eval_range(again, 50)
        assert np.array_equal(rng_a.values, rng_b.values), cfg
    # canonical text stores the exception with float repr
    spec = build_spec("char:q=4,index=1;except=3~1~0")
    assert spec_config(spec) == "char:q=4,index=1;except=3~1.0~0.0"


def _twist(q: int, index: int, t: float) -> CharacterTwist:
    return CharacterTwist(character_by_index(q, index % euler_phi(q)), t)


PRIMES_TO_1E18 = st.integers(2, 10**18).map(lambda n: int(sympy.prevprime(n + 1)))
UNIT_DISC = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
BASES = st.one_of(
    st.just(One()),
    st.just(Liouville()),
    st.builds(RandomRademacher, st.integers(-(2**70), 2**70)),
    st.builds(CoprimeIndicator, st.integers(1, FACTOR_LIMIT)),
    st.builds(
        _twist,
        st.sampled_from([1, 3, 4, 5, 7, 8, 12, 15]),
        st.integers(0, 10**6),
        st.floats(-50, 50, allow_nan=False),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    BASES,
    st.dictionaries(PRIMES_TO_1E18, UNIT_DISC, max_size=4),
    st.floats(0, 4, allow_nan=False),
    st.integers(2, 10**9),
    st.integers(2, 10**9),
    st.integers(2**64, 2**80),
)
def test_generated_spec_round_trip(base, exceptions, scale_r, a, b, huge):
    spec = make_spec(base, scale_r=scale_r, exceptions=exceptions)
    canon = spec_config(spec)
    again = build_spec(canon)
    assert spec_config(again) == canon
    assert again.exceptions == spec.exceptions and again.scale_r == spec.scale_r
    for key in (a * b, huge):  # refused as a key, in a second clause or the first
        with pytest.raises(ValueError, match=r"not prime|below 2\^64"):
            build_spec(f"{canon};except={key}~0.5~0")


def test_large_exception_keys_validate_quickly():
    """Exception keys used to be trial-divided to sqrt(p): 2^61 - 1 ran for
    minutes and 1e15 + 37 took seconds."""
    script = (
        "from multsum import build_spec\n"
        "for p in (2**61 - 1, 10**15 + 37, 2**64 - 59):\n"
        "    assert p in build_spec(f'one;except={p}~0.5~0').exceptions\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
    )
    assert r.returncode == 0, r.stderr


def test_coprime_q_above_factor_limit_refused():
    """Q = 1e30 used to be accepted and then overflow int64 inside block
    evaluation."""
    assert build_spec(f"coprime:Q={FACTOR_LIMIT}").base.Q == FACTOR_LIMIT
    for cfg in (f"coprime:Q={FACTOR_LIMIT + 1}", "coprime:Q=" + str(10**30)):
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            build_spec(cfg)


def test_readme_grammar_examples_parse():
    """Every base in the README's grammar and every example spec builds."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("Function specs use a one-line grammar", 1)[1]
    section = section.split("Long `profile` runs", 1)[0]
    bases_line = next(ln for ln in section.splitlines() if ln.startswith("bases:"))
    placeholders = {"Q": "5", "I": "1", "T": "0.5", "S": "3"}
    bases = [
        re.sub(r"=([A-Z])\b", lambda m: "=" + placeholders[m.group(1)],
               alt.strip().replace("[", "").replace("]", ""))
        for alt in bases_line.removeprefix("bases:").split("|")
    ]
    examples = re.findall(r"`([^`\s]+)` is ", section)
    assert len(bases) == 5 and len(examples) == 3, (bases, examples)
    for cfg in bases + examples:
        spec = build_spec(cfg)
        assert spec_config(build_spec(spec_config(spec))) == spec_config(spec), cfg


def test_build_spec_rejects_bad_grammar():
    bad = [
        "",
        "gauss",
        "one:color=red",
        "char:q=4",
        "coprime",
        "one;except=6~1~0",
        "one;except=2~1",
        "one;except=2~2~0",
        "one;flip=2",
        "one;except",
        "rademacher:seed",
        "one;except=2~nan~0",
        "one;except=2~0~inf",
        "char:q=5,char_index=1",  # the grammar has no alias
        "char:q=5,q=7,index=1",  # each key, clause and exception prime once
        "char:q=5,index=1,index=real",
        "one;scale_r=0.1;scale_r=0.2",
        "one;except=2~1~0,2~0~1",
        "one;except=2~1~0;except=2~0~1",
        "rademacher:seed=",  # and never empty
        "char:q=5,index=1,t=",
        "char:q=5,index= ",
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            build_spec(cfg)
    # distinct primes may come in two clauses
    assert build_spec("one;except=2~1~0;except=3~0~1").exceptions == {2: 1, 3: 1j}


def test_rademacher_block_independence():
    spec = make_spec(RandomRademacher(seed=99))
    small = np.concatenate(list(iter_blocks(spec, 20000, block=1 << 10)))
    big = np.concatenate(list(iter_blocks(spec, 20000, block=1 << 14)))
    assert np.array_equal(small, big)
    # signs at primes come straight from the keyed hash, not the sieve size
    ps = np.array([2, 3, 5, 7, 10007], dtype=np.int64)
    assert np.array_equal(
        rademacher_signs(99, ps), [spec_value_sign(spec, int(p)) for p in ps]
    )


PRODUCER_SPECS = [
    build_spec("char:q=4,index=1;except=3~1~0"),  # exact real
    build_spec("char:q=5,index=1,t=0.5;except=2~0.5~0"),  # float complex
    build_spec("char:q=7,index=2;except=3~0.3~0.2"),  # inexact complex exception products
]


@settings(max_examples=40, deadline=None)
@given(
    pick=st.integers(min_value=0, max_value=len(PRODUCER_SPECS) - 1),
    x=st.integers(min_value=1, max_value=3 * CHUNK + 5),
    start_frac=st.floats(min_value=0.0, max_value=1.0),
    block=st.sampled_from([CHUNK, 2 * CHUNK, 1, 97, 1001, None]),
    squarefree=st.booleans(),
)
@example(pick=2, x=3 * CHUNK + 5, start_frac=0.0, block=97, squarefree=False)
@example(pick=2, x=3 * CHUNK + 5, start_frac=0.0, block=1, squarefree=True)
def test_iter_blocks_start_and_mask(pick, x, start_frac, block, squarefree):
    """Blocks laid from any start, of any length, masked or not, concatenate
    to eval_range's values from that start, times mu^2 when masked."""
    spec = PRODUCER_SPECS[pick]
    start = 1 + int(start_frac * (x - 1))
    if block == 1:
        start = max(start, x - 50)  # one value per block: keep the run short
    got = np.concatenate(list(iter_blocks(spec, x, block, start, squarefree)))
    want = eval_range(spec, x).values[start:]
    if squarefree:
        want = want * np.array([oracles.naive_squarefree(n) for n in range(start, x + 1)])
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg", ["char:q=5,index=1,t=0.5;except=2~0.5~0",
                                 "char:q=7,index=2;except=3~0.3~0.2"])
def test_squarefree_complex_blocks_bytes(cfg):
    """The in-place mu^2 mask gives the bits of f(n) * mu^2(n) for complex
    values, at the default block and at CHUNK-value blocks."""
    spec = build_spec(cfg)
    x = 3 * CHUNK + 5
    mu2 = np.array([oracles.naive_squarefree(n) for n in range(1, x + 1)])
    want = eval_range(spec, x).values[1:] * mu2
    for block in (None, CHUNK):
        got = np.concatenate(list(iter_blocks(spec, x, block, squarefree=True)))
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes(), block


def test_iter_blocks_start_bounds():
    spec = make_spec(One())
    assert list(iter_blocks(spec, 10, start=11)) == []
    for start in (0, 12):
        with pytest.raises(ValueError):
            list(iter_blocks(spec, 10, start=start))


def test_rademacher_seeds_match_single_specs(monkeypatch):
    """Each seed's values from the shared per-block sieve are its own spec's
    bytes, over three seed groups (64 + 64 + 2 seeds) and a short last block,
    with a sign table over all of 1..x and with one of 2^14 bytes, whose top
    leaves most primes to the per-block hash."""
    seeds = list(range(-1, 127)) + [2**64 + 5, 3]
    x = 3 * CHUNK + 5
    for r, table_bytes in itertools.product((0.0, 0.5), (multfun.SIGN_TABLE_BYTES, 1 << 14)):
        monkeypatch.setattr(multfun, "SIGN_TABLE_BYTES", table_bytes)
        with monkeypatch.context() as patch:
            short_blocks(patch, CHUNK)
            family = RademacherSeeds(seeds, r, x)
        assert len(family) == 4 and family.exact == (r == 0)
        assert sum(t.nbytes for t in family.tables) <= table_bytes
        assert (family.top == x) == (table_bytes > 1 << 14)
        blocks = [family.block(k) for k in range(len(family))]
        assert [w.dtype for w in blocks[0].words] == [np.uint64, np.uint64, np.uint8]
        for i, seed in enumerate(seeds):
            got = np.concatenate([b.values(i) for b in blocks])
            spec = make_spec(RandomRademacher(seed), scale_r=r)
            assert got.tobytes() == eval_range(spec, x).values[1:].tobytes(), seed


def test_rademacher_seeds_table_stays_in_bound():
    """The most seeds random_walk_mc takes at STREAM_LIMIT share one table
    of at most SIGN_TABLE_BYTES; its base-prime words come from it."""
    family = RademacherSeeds(list(range(3_904)), 0.25, STREAM_LIMIT)
    assert sum(t.nbytes for t in family.tables) <= multfun.SIGN_TABLE_BYTES
    assert family.top >= family.base_primes[-1]


def scan_bytes(scan) -> list:
    """Every field of a BlockScan and of its Pieces, arrays as bytes."""
    return [v.tobytes() if isinstance(v, np.ndarray) else v
            for obj in (scan.pieces, scan) for k, v in vars(obj).items() if k != "pieces"]


def test_scan_through_the_shifted_buffer():
    """A block scanned with out CHUNK values before its values in one
    buffer, as RademacherSeeds.scans does, gives every BlockScan field of a
    fresh out and of an in-place scan, each with a fresh layout: every
    seed of a damped and of an undamped family, whose scans of one block
    share one Pieces, with checkpoints inside the blocks and a last block
    ending in a partial chunk; and the bounded exact walk, whose whole-block
    np.cumsum then overlaps its values."""
    x = BLOCK + 3 * CHUNK + 5
    cps = [1, 1000, 10 * CHUNK + 17, BLOCK - 1, BLOCK, BLOCK + CHUNK + 3, x]
    for r in (0.25, 0.0):
        family = RademacherSeeds([3, 7], r, x)
        assert [hi - lo for lo, hi in family.ranges] == [BLOCK, 3 * CHUNK + 5]
        for k, ((lo, hi), shared) in enumerate(zip(family.ranges, family.scans(cps))):
            blk, n, exact, carry = family.block(k), hi - lo, r == 0, family._carry_bound(lo)
            assert shared[0].pieces is shared[1].pieces, (r, k)
            for i in range(2):
                values = blk.values(i)
                buf = np.empty(n + CHUNK)
                scans = [_scan(v, _pieces(lo, n, cps, exact), exact, out, False, carry)[0]
                         for v, out in [(values.copy(), np.empty(n)), (values.copy(), None),
                                        (blk.values(i, buf[CHUNK:]), buf[:n])]]
                want = scan_bytes(shared[i])
                assert all(scan_bytes(scan) == want for scan in scans), (r, k, i)
                assert shared[i].pieces.here == [c for c in cps if lo <= c < hi], (r, k, i)
    n = 16 * CHUNK + 5 * GROUP + 17
    buf = np.empty(n + CHUNK)
    buf[CHUNK:] = exact_walk("bounded", n)
    cps = [1, 100, CHUNK + 3, n]
    fresh, laid = _scan(buf[CHUNK:].copy(), _pieces(1, n, cps, True), True, np.empty(n), False)
    shifted, took = _scan(buf[CHUNK:], _pieces(1, n, cps, True), True, buf[:n], False)
    assert laid and took and scan_bytes(shifted) == scan_bytes(fresh)


def test_apply_refuses_a_block_out_of_order():
    state = ProfileState(exact=False, real=True)
    scan = _scan(np.ones(10), _pieces(11, 10, [15], False), False, None, False)[0]
    with pytest.raises(ValueError, match="does not follow"):
        state.apply(scan)
    state.feed(np.ones(10), [5])
    assert state.apply(scan) == [(15, 15 + 0j, 15.0)]


def spec_value_sign(spec, p: int) -> float:
    return float(prime_unit_value(spec, p).real)


def test_rademacher_seed_sensitivity():
    ps = np.arange(2, 100000)
    ps = ps[[oracles.trial_spf(int(n)) == n for n in ps]]
    a = rademacher_signs(1, ps)
    b = rademacher_signs(2, ps)
    assert not np.array_equal(a, b)
    # both are roughly balanced
    for signs in (a, b):
        assert abs(float(signs.mean())) < 0.05, float(signs.mean())


def test_eval_range_capacity_and_bounds():
    with pytest.raises(CapacityError):
        eval_range(make_spec(One()), 130_000_001)
    with pytest.raises(CapacityError):
        stream_profile(make_spec(One()), 10**9 + 1, [10])
    with pytest.raises(ValueError):
        list(iter_blocks(make_spec(One()), 0))


def short_blocks(monkeypatch, length: int) -> None:
    """Lay every stream in blocks of `length` values, in place of
    block_length(x): short blocks at small x."""
    monkeypatch.setattr(multfun, "block_length", lambda x: length)


def test_profile_matches_brute_cumsum(chi4, monkeypatch):
    spec = make_spec(CharacterTwist(chi4), exceptions={3: 1})
    N = 5000
    rng = eval_range(spec, N)
    cum = np.cumsum(rng.values[1:])
    cps = [10, 100, 777, 4096, 5000]
    short_blocks(monkeypatch, 512)
    prof = stream_profile(spec, N, cps)
    assert prof.checkpoints == cps
    for i, x in enumerate(cps):
        assert prof.sums[i] == complex(cum[x - 1]), x
        assert prof.sups[i] == float(np.max(np.abs(cum[:x]))), x


def test_stream_profile_matches_materialized(chi5, monkeypatch):
    spec = make_spec(CharacterTwist(chi5, t=0.25), exceptions={2: 0.5})
    N = 20000
    cps = [64, 4096, 20000]
    sums, sups = oracles.naive_profile(eval_range(spec, N).values, cps, False)
    # the block is a CHUNK multiple: the oracle lays its chunks from n = 1
    short_blocks(monkeypatch, 1 << 12)
    via_stream = stream_profile(spec, N, cps)
    assert via_stream.checkpoints == cps
    assert via_stream.sums == sums
    assert via_stream.sups == sups


def test_profile_checkpoint_validation():
    spec = make_spec(One())
    with pytest.raises(ValueError):
        stream_profile(spec, 100, [])
    with pytest.raises(ValueError):
        stream_profile(spec, 100, [10, 10])
    with pytest.raises(ValueError):
        stream_profile(spec, 100, [10, 200])


def test_snapshot_resume_matches_full_run(chi5, monkeypatch):
    """A profile resumed from a snapshot matches the uninterrupted run.

    Integer-exact specs resume bit-identically.  Float specs may regroup the
    compensated-summation chunks at the resume point, so they are only
    guaranteed to agree to accumulator precision.
    """
    short_blocks(monkeypatch, 512)
    for spec, tol in (
        (make_spec(CharacterTwist(chi5)), 0.0),
        (make_spec(CharacterTwist(chi5, t=0.3), exceptions={2: 0.7}), 1e-9),
    ):
        cps = [2500, 5000, 10000]
        full = stream_profile(spec, 10000, cps)
        rows = resumed_rows(spec, 5000, 10000, cps)
        assert [c for c, _, _ in rows] == cps
        for (_, got, got_sup), want, want_sup in zip(rows, full.sums, full.sups):
            assert abs(got - want) <= tol, (spec_config(spec), got, want)
            assert abs(got_sup - want_sup) <= tol, (spec_config(spec), got_sup, want_sup)


def resumed_rows(spec, mid: int, x: int, cps: list[int], squarefree: bool = False) -> list:
    """The rows of a profile of 1..mid, then of the rest up to x resumed from
    its snapshot, as the CLI's profile drives them: iter_blocks from
    n_done + 1 into ProfileState.feed."""
    state = ProfileState(is_exact_spec(spec), is_real_spec(spec))
    rows = [row for blk in iter_blocks(spec, mid, squarefree=squarefree)
            for row in state.feed(blk, [c for c in cps if c <= mid])]
    state = ProfileState.restore(state.snapshot())
    return rows + [row for blk in iter_blocks(spec, x, start=state.n_done + 1,
                                              squarefree=squarefree)
                   for row in state.feed(blk, cps)]


SCAN_MODES = [  # one spec per value mode: (exact, real)
    "char:q=4,index=1;except=3~1~0",  # exact real
    "char:q=5,index=1;except=5~0~1",  # exact complex
    "liouville;except=2~0.5~0;scale_r=0.25",  # float real
    "char:q=5,index=1,t=0.5;except=2~0.5~0",  # float complex
]


@pytest.mark.parametrize("block", [4096, None])
@pytest.mark.parametrize("cfg", SCAN_MODES)
def test_stream_profile_matches_naive_scan(cfg, block, monkeypatch):
    """stream_profile equals a materialized prefix sum and running max bit
    for bit, with checkpoints on the first and last element of a block and
    of a compensated-sum chunk, several in one block, a final one-element
    block, and a resume that starts mid-block."""
    check_naive_scan(cfg, block, False, monkeypatch)


@pytest.mark.parametrize("cfg", SCAN_MODES[1::2])
def test_complex_squarefree_profile_matches_naive_scan(cfg, monkeypatch):
    """The same for the complex modes times mu^2(n), as iter_blocks masks them."""
    check_naive_scan(cfg, None, True, monkeypatch)


def check_naive_scan(cfg: str, block: int | None, squarefree: bool, monkeypatch) -> None:
    spec = build_spec(cfg)
    exact = is_exact_spec(spec)
    B = block or BLOCK
    x = 3 * B + 1
    if block is None:
        assert block_length(x) == B
    cps = sorted({1, 2, CHUNK - 1, CHUNK, B - 1, B, B + 1, B + 7, B + 100, 2 * B, 2 * B + 1,
                  3 * B, x})
    values = eval_range(spec, x).values
    if squarefree:  # the product iter_blocks takes
        np.multiply(values[1:], squarefree_block(1, x + 1, primes_upto(math.isqrt(x))),
                    out=values[1:])

    def bits(sums, sups):  # float hex, so signed zeros count too
        return ([(s.real.hex(), s.imag.hex()) for s in sums],
                [float(v).hex() for v in sups])

    if block is not None:
        short_blocks(monkeypatch, block)
    prof = stream_profile(spec, x, cps, squarefree=squarefree)
    assert prof.checkpoints == cps
    assert bits(prof.sums, prof.sups) == bits(*oracles.naive_profile(values, cps, exact))

    mid = B + B // 2 + 3
    rows = resumed_rows(spec, mid, x, cps, squarefree)
    assert [c for c, _, _ in rows] == cps
    assert bits([s for _, s, _ in rows], [sup for _, _, sup in rows]) == bits(
        *oracles.naive_profile(values, cps, exact, resume_at=mid))


def squares(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def flipped_pair(scale: float, seed: int = 0, window=squares) -> tuple[complex, complex]:
    """Complex a and b of nearly equal modulus, in this numpy's own bits,
    with window (re*re + im*im, or np.abs) larger at a but np.hypot larger
    at (b - a) + a: the two orders disagree, so the largest window misses
    the largest hypot."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)) * scale
    b = np.abs(a) * np.exp(1j * rng.uniform(0, 2 * np.pi, len(a)))
    reached = (b - a) + a  # the running sum after a, then b - a
    near = [window(z) for z in (a, reached)]
    hyp = [np.hypot(z.real, z.imag) for z in (a, reached)]
    hit = np.flatnonzero((near[0] > near[1]) & (hyp[0] < hyp[1]))
    assert len(hit), "no flipped pair found"
    return complex(a[hit[0]]), complex(b[hit[0]])


def hypot_sups(prefix: np.ndarray, cuts: list[int]) -> list[float]:
    """max |M| per segment with np.hypot over every value."""
    return np.maximum.reduceat(np.hypot(prefix.real, prefix.imag), cuts).tolist()


def test_norm_sups_match_hypot_everywhere():
    """_norm_sups gives np.hypot's max over each segment bit for bit: near
    ties whose square and hypot orders flip, and ties whose np.abs and
    hypot orders flip (np.abs is the float window), in either order and across
    cuts at 1, CHUNK - 1, CHUNK and the block's end or a cut every 100
    values; all-zero segments (with signed zeros); subnormal ones, whose
    squares round coarsely; infinite and NaN ones; segments of each kind
    side by side; and one-value segments."""
    n = 3 * CHUNK + 5
    rng = np.random.default_rng(3)
    layouts = [[0], [0, 1, CHUNK - 1, CHUNK, n - 1], [0, CHUNK, 2 * CHUNK],
               list(range(0, n, 100))]

    def hexes(prefix, cuts):
        return [v.hex() for v in _norm_sups(prefix, cuts)], [
            v.hex() for v in hypot_sups(prefix, cuts)]

    ties = [(scale, squares) for scale in (1.0, 1e3, 3e-161)]  # squares overflow past 1e154
    for scale, window in ties + [(scale, np.abs) for scale in (1.0, 1e3, 3e-161, 1e300)]:
        a, b = flipped_pair(scale, window=window)
        b = (b - a) + a
        for first, second in ((a, b), (b, a)):
            for cuts in layouts:
                prefix = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale * 0.3
                for lo, hi in zip(cuts, cuts[1:] + [n]):
                    i, j = lo + (hi - lo) // 3, lo + 2 * (hi - lo) // 3
                    prefix[i], prefix[j] = first, second
                got, want = hexes(prefix, cuts)
                assert got == want
    mixed = np.zeros(n, dtype=np.complex128)
    mixed.real[::3] = -0.0
    mixed.imag[1::5] = -0.0
    mixed[CHUNK:] = rng.standard_normal(n - CHUNK) * 1e-160  # subnormal squares
    mixed[2 * CHUNK + 150 : 2 * CHUNK + 450] = rng.standard_normal(300) * (1 + 1j)
    mixed[2 * CHUNK + 1000] = complex(math.inf, 1.0)
    mixed[2 * CHUNK + 2000] = complex(math.nan, 1.0)
    for cuts in layouts:
        got, want = hexes(mixed, cuts)
        assert got == want


def exact_walk(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """n real values in {-1, 0, 1}: a walk that drifts up (few groups can
    hold its max), one of 1s, a slower walk of signs and zeros whose zeros
    are -0.0 at every third place (so are its first two values), a walk of
    runs up to 100 long that drifts up (its peaks fall inside groups), a
    swing of 10 groups up and 20 down (its extremes fall on group ends), or
    a bounded period (char mod 4: every group reaches the max)."""
    rng = np.random.default_rng(seed)
    if kind == "drift":
        return np.where(rng.random(n) < 0.6, 1.0, -1.0)
    if kind == "one":
        return np.ones(n)
    if kind == "signs":
        vals = rng.choice([-1.0, 0.0, 1.0], n, p=[0.3, 0.3, 0.4])
        vals[::3] *= -1.0  # -0.0 where a zero lands
        vals[:2] = -0.0
        return vals
    if kind == "runs":
        signs = np.where(rng.random(n) < 0.55, 1.0, -1.0)
        return np.repeat(signs, rng.integers(1, 101, n))[:n]
    if kind == "swing":
        return np.resize(np.repeat([1.0, -1.0], [10 * GROUP, 20 * GROUP]), n)
    return np.resize([1.0, 0.0, -1.0, 0.0], n)


EXACT_WALKS = ["drift", "one", "signs", "runs", "swing", "bounded"]


def scan_fields(scan) -> list:
    """A BlockScan's fields, sums and at in float hex; top and bottom by
    value, as which zero a max of +-0 picks is numpy's choice."""
    pieces = scan.pieces
    return [pieces.lo, pieces.length, [v.hex() for v in scan.sums], pieces.chunk.tolist(),
            scan.top.tolist(), scan.bottom.tolist(), pieces.here,
            [v.hex() for v in scan.at.tolist()], pieces.piece.tolist()]


@pytest.mark.parametrize("n", [16 * CHUNK + 5 * GROUP + 17, 16 * CHUNK])
@pytest.mark.parametrize("kind", EXACT_WALKS)
def test_grouped_exact_scan_matches_full_prefix(kind, n):
    """_scan's group-bounded scan of an exact real block gives the
    BlockScan of the block's full np.cumsum, with checkpoints at group
    edges, mid-group, at CHUNK multiples and at the block's first and last
    value, none at all, one at every value of a few groups, or one ending
    a group with no laid group after it; blocks end in a short group or a
    full one.  The walks lay out few groups, the bounded period more than
    half, so it takes the full cumsum."""
    vals = exact_walk(kind, n)
    for lo in (1, 2**20 + 1):
        offsets = [[], [0, GROUP - 1, GROUP, 2 * GROUP - 1, 2 * GROUP, 100, CHUNK - 1, CHUNK,
                        2 * CHUNK + 37, n - GROUP - 1, n - 2, n - 1],
                   list(range(5 * GROUP - 3, 7 * GROUP + 3)), [n - 17, n - 9, n - 1],
                   [5 * GROUP - 1]]
        for offs in offsets:
            pieces = _pieces(lo, n, [lo + i for i in offs], True)
            grouped, fell_back = _scan(vals.copy(), pieces, True, np.empty(n), False)
            full, took = _scan(vals.copy(), pieces, True, np.empty(n), True)
            assert took and fell_back == (kind == "bounded")
            assert scan_fields(grouped) == scan_fields(full), (kind, lo, offs)
            in_place = _scan(vals.copy(), pieces, True, None, False)[0]
            assert scan_fields(in_place) == scan_fields(full)


@pytest.mark.parametrize("n", [16 * CHUNK + 5 * GROUP + 17, 16 * CHUNK])
@pytest.mark.parametrize("kind", EXACT_WALKS)
def test_whole_prefix_exact_scan_matches_float_cumsum(kind, n):
    """_scan with full_prefix gives, field by field and in float hex (so
    signed zeros too), the total, piece extremes and checkpoint values of
    one float64 np.cumsum plus two reduceats (oracles.exact_prefix_scan):
    checkpoints at every value of a few groups and of the last one,
    mid-group, at group and CHUNK edges and at the block's first and last
    value; blocks ending in a short group or a full one.  Each walk runs
    as it is and with its first value set to 1, so the walk of signs
    starts once with -0.0 (which keeps np.cumsum) and once with its
    -0.0 values inside the block."""
    for vals in (exact_walk(kind, n), np.concatenate(([1.0], exact_walk(kind, n)[1:]))):
        for lo in (1, 2**20 + 1):
            offsets = [[], [0], [n - 1], [0, GROUP - 1, GROUP, 2 * GROUP - 1, 2 * GROUP, 100,
                                          CHUNK - 1, CHUNK, 2 * CHUNK + 37, n - GROUP - 1, n - 1],
                       list(range(5 * GROUP - 3, 7 * GROUP + 3)), list(range(n - GROUP - 20, n)),
                       [GROUP // 2, 3 * GROUP // 2, CHUNK + GROUP // 2]]
            for offs in offsets:
                pieces = _pieces(lo, n, [lo + i for i in offs], True)
                scan, took = _scan(vals.copy(), pieces, True, np.empty(n), True)
                want = oracles.exact_prefix_scan(vals, pieces.cuts, pieces.ends)
                got = scan.sums, scan.top, scan.bottom, scan.at
                assert took
                assert [[float(v).hex() for v in a] for a in got] == [
                    [float(v).hex() for v in a] for a in want], (kind, lo, offs)


@pytest.mark.parametrize("kind", EXACT_WALKS)
def test_exact_real_feed_matches_naive_scan(kind):
    """ProfileState.feed over exact real blocks of 2^14 values, the last
    ending in a short group, gives oracles.naive_profile's rows bit for bit,
    with every dyadic checkpoint (the first block holds 15 of them) and
    checkpoints at group edges, mid-group, block ends and CHUNK multiples,
    run through and resumed mid-block.  The first block settles the scan
    per stream: 1s and the walks keep their group bounds, the bounded
    period lays out its whole prefix."""
    B = 1 << 14
    x = 3 * B + 3 * GROUP + 17
    values = np.concatenate(([0.0], exact_walk(kind, x, seed=5)))
    values[1] = 1.0  # f(1)
    cps = sorted({1 << k for k in range(x.bit_length())} | {
        GROUP - 1, GROUP, GROUP + 1, 3 * GROUP + 40, CHUNK, 2 * CHUNK, B - 1, B, B + 1,
        2 * B + GROUP, 3 * B, 3 * B + 2 * GROUP + 5, x - 1, x})

    def run(state, start):
        return [row for lo in range(start, x + 1, B)
                for row in state.feed(values[lo : min(lo + B, x + 1)].copy(), cps)]

    def bits(rows):
        return [(c, m.real.hex(), m.imag.hex(), sup.hex()) for c, m, sup in rows]

    sums, sups = oracles.naive_profile(values, cps, exact=True)
    want = bits(zip(cps, sums, sups))
    state = ProfileState(exact=True, real=True)
    assert bits(run(state, 1)) == want
    assert state.full_prefix == (kind == "bounded")
    mid = B + B // 2 + 3
    head = ProfileState(exact=True, real=True)
    rows = [row for row in head.feed(values[1 : mid + 1].copy(), cps)]
    rows += run(ProfileState.restore(head.snapshot()), mid + 1)
    assert bits(rows) == want


FLOAT_SPECS = {
    "damped": "rademacher:seed=9;scale_r=0.25",
    "harmonic": "rademacher:seed=4;scale_r=1.0",  # steps near 1/n: delta largest beside |f|
    "monotone": "one;scale_r=0.25",
    "except2": "one;except=2~0.5~0",
    "zeros": "liouville;except=2~1e-300~0,3~-0.0~0",  # +-0.0, 1e-300 and its underflow
    "bounded": "char:q=5,index=real;scale_r=0.1",
}


def row_bits(rows) -> list:
    return [(c, m.real.hex(), m.imag.hex(), sup.hex()) for c, m, sup in rows]


def float_checkpoints(B: int, x: int) -> list[int]:
    """Few checkpoints in the first block of B values, so that it keeps its
    bounds (the first block decides for the stream); after it, checkpoints
    at group and chunk edges, mid-chunk, at every value of one chunk, at
    the block ends and at every power of two."""
    return sorted({GROUP - 1, GROUP, GROUP + 1, 3 * GROUP + 40, CHUNK - 1, CHUNK,
                   B - 1, B, B + 1, B + GROUP, B + CHUNK // 2 + 7, B + 3 * CHUNK, 2 * B - 1,
                   3 * B + CHUNK, x - 1, x}
                  | set(range(2 * B + 5 * CHUNK + 1, 2 * B + 6 * CHUNK + 1))
                  | {1 << k for k in range(B.bit_length(), x.bit_length())})


@pytest.mark.parametrize("B", [16 * CHUNK, 32 * CHUNK])
@pytest.mark.parametrize("kind", FLOAT_SPECS)
def test_float_real_feed_matches_naive_scan(kind, B, monkeypatch):
    """ProfileState.feed over float real blocks of B values, the last ending
    in a short chunk, gives oracles.naive_profile's rows and those of the
    full chunk scan (full_prefix set) bit for bit.  The first block settles
    the scan per stream: the walks accumulate only some chunks, the bounded
    walk every one."""
    spec = build_spec(FLOAT_SPECS[kind])
    x = 3 * B + 5 * CHUNK + 3 * GROUP + 17
    cps = float_checkpoints(B, x)
    sums, sups = oracles.naive_profile(eval_range(spec, x).values, cps, exact=False)
    want = row_bits(zip(cps, sums, sups))
    short_blocks(monkeypatch, B)
    state, full = ProfileState(exact=False, real=True), ProfileState(exact=False, real=True)
    full.full_prefix = True
    rows, full_rows, skipped = [], [], False
    for blk in iter_blocks(spec, x):
        scan, _ = _scan(blk.copy(), _pieces(state.n_done + 1, len(blk), cps, False), False,
                        None, False, abs(state.re.hi) + abs(state.re.lo))
        skipped |= bool(np.isinf(scan.top).any())
        full_rows += full.feed(blk.copy(), cps)
        rows += state.feed(blk, cps)
    assert row_bits(rows) == want
    assert row_bits(full_rows) == want
    assert state.full_prefix == (kind == "bounded")
    assert skipped == (kind != "bounded")


@pytest.mark.parametrize("walk", ["drift", "flat"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_float_feed_from_a_large_carry(sign, walk):
    """A state restored with re.hi near +-1e9 (and a nonzero lo), fed walks
    whose steps lie below ulp(1e9) / 2, so that fl(c + s) rounds the sums of
    different chunks past one another: the rows equal oracles.naive_profile's
    from that carry and the full chunk scan's, bit for bit.  A drifting walk
    keeps its bounds; a flat one, whose whole range is below one ulp, lays
    out every chunk, as delta's carry term is wider than the walk."""
    B = 16 * CHUNK
    x = 4 * B + 3 * CHUNK + 5
    cps = [1000, B + 77, 2 * B + CHUNK, 3 * B, x]
    carry = (sign * (1e9 - 0.375), sign * 2.0**-40)
    snap = {"n_done": 0, "sup": "0x0p+0", "exact": False, "real": True,
            "re": [v.hex() for v in carry], "im": ["0x0p+0", "0x0p+0"]}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        if walk == "drift":
            steps = np.where(rng.random(x) < 0.56, 1.0, -1.0) * rng.uniform(1e-8, 5e-8, x)
        else:
            steps = np.where(rng.random(x) < 0.5, 1.0, -1.0) * rng.uniform(1e-10, 5e-10, x)
        values = np.concatenate(([0.0], steps))
        sums, sups = oracles.naive_profile(values, cps, exact=False, carry=carry)
        want = row_bits(zip(cps, sums, sups))
        state, full = ProfileState.restore(snap), ProfileState.restore(snap)
        full.full_prefix = True
        rows, full_rows = [], []
        for lo in range(1, x + 1, B):
            rows += state.feed(values[lo : lo + B].copy(), cps)
            full_rows += full.feed(values[lo : lo + B].copy(), cps)
        assert row_bits(rows) == want, seed
        assert row_bits(full_rows) == want, seed
        assert state.full_prefix == (walk == "flat"), seed


@pytest.mark.parametrize("r", [0.25, 1.0, 2.0])
def test_rademacher_scans_match_naive_scan(r, monkeypatch):
    """RademacherSeeds.scans of a damped family, whose bounds share one
    group sum of |f| per block and allow the running total of a fresh state
    (RademacherSeeds._carry_bound), applied to fresh states give the rows
    of oracles.naive_profile and of the full chunk scan bit for bit, with
    chunks left out."""
    B = 16 * CHUNK
    short_blocks(monkeypatch, B)
    x = 3 * B + 2 * CHUNK + 77
    seeds = [3, 8, 2**64 + 100]
    cps = sorted({GROUP, CHUNK, B // 3, B, B + CHUNK + 1, 2 * B + GROUP - 1, x - 1, x})
    family = RademacherSeeds(seeds, r, x)
    states = [ProfileState(exact=False, real=True) for _ in seeds]
    fulls = [ProfileState(exact=False, real=True) for _ in seeds]
    rows, full_rows = [[] for _ in seeds], [[] for _ in seeds]
    skipped = False
    for k, scans in enumerate(family.scans(cps)):
        blk, lo = family.block(k), family.ranges[k][0]
        for i, scan in enumerate(scans):
            skipped |= bool(np.isinf(scan.top).any())
            rows[i] += states[i].apply(scan)
            pieces = _pieces(lo, len(blk), cps, False)
            full_rows[i] += fulls[i].apply(_scan(blk.values(i), pieces, False, None, True)[0])
    assert skipped
    for seed, row, full_row in zip(seeds, rows, full_rows):
        values = eval_range(make_spec(RandomRademacher(seed=seed), scale_r=r), x).values
        sums, sups = oracles.naive_profile(values, cps, exact=False)
        assert row_bits(row) == row_bits(zip(cps, sums, sups)) == row_bits(full_row), seed


@pytest.mark.parametrize("r", [0.1, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 7.0])
def test_rademacher_carry_bound_covers_the_damped_sum(r):
    """_carry_bound(lo) lies between twice the sum of n^(-r) over n < lo and
    twice that plus 2: the integral bound is at most one term off."""
    family = RademacherSeeds([1], r, 1000)
    for lo in [1, 2, 3, 10, 1000, 10**5]:
        total = math.fsum(n**-r for n in range(1, lo))
        assert 2 * total <= family._carry_bound(lo) <= 2 * total + 2, lo


def test_apply_refuses_a_carry_past_the_scan_bounds():
    """A float scan whose chunks were left out holds only for a running
    total up to its carry bound, here 2 (lo - 1): a state past it is
    refused, one at it is applied."""
    lo = 16 * CHUNK + 1
    scan = _scan(np.full(16 * CHUNK, 0.5), _pieces(lo, 16 * CHUNK, [], False), False, None,
                 False, 2.0 * (lo - 1))[0]
    assert scan.carry == 2.0 * (lo - 1) and np.isinf(scan.top).any()
    state = ProfileState(False, True, lo - 1, 0.0, NeumaierSum(2.0 * lo))
    with pytest.raises(ValueError, match="exceeds"):
        state.apply(scan)
    state.re.hi = 2.0 * (lo - 1)
    assert state.apply(scan) == []
    assert state.sup == 2.0 * (lo - 1) + 0.5 * 16 * CHUNK


def norm_classes(limit: int) -> dict[int, set[int]]:
    """np.hypot's bits over the integer pairs 0 <= a <= b with a^2 + b^2 <
    limit, keyed by a^2 + b^2."""
    a, b = np.meshgrid(np.arange(math.isqrt(limit) + 1), np.arange(math.isqrt(limit) + 1))
    keep = (a <= b) & (a * a + b * b < limit)
    a, b = a[keep].astype(np.float64), b[keep].astype(np.float64)
    classes: dict[int, set[int]] = {}
    for t, h in zip((a * a + b * b).astype(np.int64).tolist(),
                    np.hypot(a, b).view(np.uint64).tolist()):
        classes.setdefault(t, set()).add(h)
    return classes


def split_norms(count: int) -> list[int]:
    """The first `count` norms below 2^14 whose representations give two
    np.hypot bit patterns on this numpy."""
    split = sorted(t for t, hs in norm_classes(1 << 14).items() if len(hs) > 1)
    assert len(split) >= count, "no norm with differing np.hypot bits found"
    return split[:count]


def test_hypot_of_norm_matches_every_representation():
    """_hypot_of_norm(t) is the np.hypot of every signed, ordered integer
    pair with x^2 + y^2 = t when they all agree, else None: for norms with
    one representation, several (25, 50, 65, 325, 5525), none (3), and ones
    whose representations round apart under np.hypot."""
    classes = norm_classes(6000)
    for t in [0, 1, 2, 3, 25, 50, 65, 325, 5525, *split_norms(3)]:
        hs = classes.get(t, set())
        want = np.array(list(hs), dtype=np.uint64).view(np.float64)[0] if len(hs) == 1 else None
        got = _hypot_of_norm(t)
        assert (got if got is None else got.hex()) == (want if want is None else want.hex()), t
        for x, y in itertools.product(range(-math.isqrt(t), math.isqrt(t) + 1), repeat=2):
            if x * x + y * y == t and got is not None:
                assert np.hypot(float(x), float(y)) == got


def test_norm_sups_gaussian_tops(monkeypatch):
    """_norm_sups over Gaussian-integer sums gives np.hypot's max per
    segment bit for bit: each segment ties at its top in several signed,
    ordered representations (25, 50, 65, 325, 5525), or in two that
    np.hypot rounds apart (the fall-through), or has a top above NORM_CAP,
    or is all zero; with one cut or a cut every 500 values.  The fast path
    runs for the shared tops alone."""
    calls = []
    real_hypot_of_norm = multfun._hypot_of_norm
    monkeypatch.setattr(multfun, "_hypot_of_norm",
                        lambda t: calls.append(t) or real_hypot_of_norm(t))
    rng = np.random.default_rng(11)
    big = 1105 * 1105  # 5 * 13 * 17 squared, above NORM_CAP
    assert big >= NORM_CAP
    n = 3000
    for tops in ([25, 50, 65, 325, 5525, 0], [5525], split_norms(2), [big]):
        cuts = [0] if len(tops) == 1 else list(range(0, n, n // len(tops)))[: len(tops)]
        prefix = np.zeros(n, dtype=np.complex128)
        for lo, hi, t in zip(cuts, cuts[1:] + [n], tops):
            reps = [(x, y) for x in range(-math.isqrt(t), math.isqrt(t) + 1)
                    for y in (-math.isqrt(t - x * x), math.isqrt(t - x * x))
                    if x * x + y * y == t]
            if t:  # a walk well below the top, then every representation
                r = math.isqrt(t) // 2
                prefix[lo:hi] = rng.integers(-r, r + 1, hi - lo) + 1j * rng.integers(
                    -r, r + 1, hi - lo) / 2
                prefix[lo:hi] = np.round(prefix[lo:hi].real) + 1j * np.round(prefix[lo:hi].imag)
                at = rng.choice(np.arange(lo, hi), len(reps), replace=False)
                prefix[at] = [complex(x, y) for x, y in reps]
        calls.clear()
        got = [v.hex() for v in _norm_sups(prefix, cuts, gaussian=True)]
        assert got == [v.hex() for v in hypot_sups(prefix, cuts)], tops
        assert got == [v.hex() for v in _norm_sups(prefix, cuts)], tops
        shared = all(t < NORM_CAP and real_hypot_of_norm(t) is not None for t in tops)
        assert bool(calls) == all(t < NORM_CAP for t in tops)
        if shared:
            assert calls == tops
    # sums off the integers leave the fast path, whatever gaussian says
    halves = np.array([0.5 + 1.5j, -1.5 + 0.5j, 0.5 + 0.5j])  # top 2.5
    assert [v.hex() for v in _norm_sups(halves, [0], gaussian=True)] == [
        v.hex() for v in hypot_sups(halves, [0])]


def test_exact_complex_feed_matches_naive_scan():
    """ProfileState.feed over a walk of Gaussian units and zeros, in blocks
    of CHUNK values, gives oracles.naive_profile's rows bit for bit, its
    sup taken from the tops' representations where they share one np.hypot
    and by the general way elsewhere."""
    rng = np.random.default_rng(4)
    x = 12 * CHUNK + 9
    units = np.array([0, 1, 1j, -1, -1j], dtype=np.complex128)
    values = np.concatenate(([0j], units[rng.integers(0, 5, x)]))
    values[1] = 1
    cps = sorted({1 << k for k in range(x.bit_length())} | {100, CHUNK + 1, 5 * CHUNK + 77, x})
    state = ProfileState(exact=True, real=False)
    rows = [row for lo in range(1, x + 1, CHUNK)
            for row in state.feed(values[lo : min(lo + CHUNK, x + 1)].copy(), cps)]
    sums, sups = oracles.naive_profile(values, cps, exact=True)
    assert [(c, m.real.hex(), m.imag.hex(), sup.hex()) for c, m, sup in rows] == [
        (c, m.real.hex(), m.imag.hex(), sup.hex()) for c, m, sup in zip(cps, sums, sups)]


@pytest.mark.parametrize("scale", [1.0, 3e-161])
def test_feed_sup_with_flipped_near_tie(scale):
    """A complex block whose running sums hold a near tie that squares and
    np.hypot order differently gives oracles.naive_profile's sums and sups
    bit for bit, with checkpoints at 1, CHUNK - 1, CHUNK and the block end,
    and the tie before or after a chunk boundary."""
    a, b = flipped_pair(scale)
    n = 3 * CHUNK + 5
    cps = [1, CHUNK - 1, CHUNK, n]
    for i, j in ((10, 20), (CHUNK + 10, 2 * CHUNK + 10), (CHUNK - 3, CHUNK + 3)):
        for first, second in ((a, b), (b, a)):
            values = np.zeros(n + 1, dtype=np.complex128)  # values[k] = f(k)
            values[i + 1], values[j + 1] = first, second - first
            state = ProfileState(exact=False, real=False)
            rows = state.feed(values[1:].copy(), cps)
            sums, sups = oracles.naive_profile(values, cps, exact=False)
            assert [r[0] for r in rows] == cps
            assert [(r[1].real.hex(), r[1].imag.hex()) for r in rows] == [
                (v.real.hex(), v.imag.hex()) for v in sums]
            assert [r[2].hex() for r in rows] == [v.hex() for v in sups]


def test_block_length_rule():
    # block_length depends on x only through isqrt(x)
    xs = [s * s for s in range(1, math.isqrt(STREAM_LIMIT) + 1)] + [STREAM_LIMIT]
    lengths = [block_length(x) for x in xs]
    for x, b in zip(xs, lengths):
        assert b % CHUNK == 0 and b & (b - 1) == 0, (x, b)
    assert lengths == sorted(lengths)
    assert block_length(5 * 10**6) == block_length(10**7) == 1 << 18
    assert lengths[-1] >= 64 * math.isqrt(STREAM_LIMIT)


def eval_block(spec, lo: int, hi: int) -> np.ndarray:
    """The block [lo, hi) of a stream of spec over 1..hi - 1."""
    return _eval_block(_Stream(spec, hi - 1, primes_upto(math.isqrt(hi - 1))), lo, hi)


HIGH_SPECS = [
    ("one;except=2~0.5~0", 0.0),
    ("liouville", 0.0),
    ("rademacher:seed=3", 0.0),
    ("coprime:Q=30", 0.0),
    ("char:q=5,index=1,t=2.0", 1e-14),
    ("char:q=5,index=real;except=2~-1~0,3~1~0", 0.0),
    ("char:q=5,index=1;except=2~0~1,5~-1~0", 0.0),
    ("char:q=7,index=2,t=0.5;except=2~0.5~0.5,3~-1~0", 1e-14),
    ("liouville;except=2~1~0,3~-1~0", 0.0),
    ("rademacher:seed=3;except=3~-1~0,31607~1~0", 0.0),
    ("coprime:Q=6;except=3~0~-1", 0.0),
]


@pytest.mark.parametrize("cfg,rel", HIGH_SPECS)
def test_eval_block_near_stream_limit(cfg, rel):
    """A derived-length block ending at 1e9 agrees with factorization on its
    last 1001 values, and on the multiples of the deepest powers of 2 and 3
    in it (2^23 * 119 and 3^12 * 1879), whose exception strides are the
    shortest."""
    spec = build_spec(cfg)
    hi = STREAM_LIMIT + 1
    lo = hi - block_length(STREAM_LIMIT)
    vals = eval_block(spec, lo, hi)
    deep = [2**23 * 119, 3**12 * 1879]
    assert all(lo <= n < hi for n in deep)
    for n in [*range(STREAM_LIMIT - 1000, hi), *deep]:
        got, want = complex(vals[n - lo]), oracles.spec_value(spec, n)
        if rel:
            assert abs(got - want) <= rel * abs(want), (cfg, n, got, want)
        else:
            assert got == want, (cfg, n, got, want)


def test_restore_refuses_malformed_snapshots():
    """A missing or ill-typed field is a ValueError, not a KeyError; that
    includes an exact snapshot of the older form, with re_int and im_int.
    So is a NaN, negative or infinite sup, a sum that is not finite, and an
    exact state whose sums are not integers below 2^53 with no low part;
    a float state keeps its fractional sums."""
    good = ProfileState(exact=True, real=True)
    good.feed(np.ones(10), [5, 10])
    snap = good.snapshot()
    st = ProfileState.restore(snap)
    assert (st.n_done, st.sup, st.re.hi, st.re.lo) == (10, 10.0, 10.0, 0.0)
    old = {"n_done": 10, "sup": (10.0).hex(), "exact": True, "real": True,
           "re_int": 10, "im_int": 0}
    bad = [old, None, [], {k: v for k, v in snap.items() if k != "exact"},
           {**snap, "n_done": "10"}, {**snap, "n_done": -1}, {**snap, "exact": 1},
           {**snap, "sup": 10.0}, {**snap, "sup": "ten"}, {**snap, "re": ["0x0p+0"]},
           {**snap, "im": "ab"}, {**snap, "re": [1.0, 0.0]},
           {**snap, "sup": "nan"}, {**snap, "sup": (-1.0).hex()}, {**snap, "sup": "inf"},
           {**snap, "re": ["inf", "0x0p+0"]}, {**snap, "im": ["0x0p+0", "nan"]},
           {**snap, "re": ["0x1.8p+0", "0x0p+0"]}, {**snap, "re": ["0x1p+0", "0x1p-60"]},
           {**snap, "re": [float(2**53).hex(), "0x0p+0"]}]
    for d in bad:
        with pytest.raises(ValueError, match="malformed resume state"):
            ProfileState.restore(d)
    fractional = {**snap, "exact": False, "re": ["0x1.8p+0", "0x1p-60"]}
    assert ProfileState.restore(fractional).re.lo == 2.0**-60


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=300),
    n=st.integers(min_value=1, max_value=300),
    pick=st.integers(min_value=0, max_value=3),
)
def test_complete_multiplicativity(m, n, pick):
    """f(mn) = f(m) f(n) for every pair, not just coprime ones."""
    from multsum import character_by_index

    specs = [
        make_spec(One(), exceptions={2: 0.5}),
        make_spec(Liouville()),
        make_spec(RandomRademacher(seed=5)),
        make_spec(CharacterTwist(character_by_index(5, 1)), exceptions={5: -1j}),
    ]
    spec = specs[pick]
    fm = oracles.spec_value(spec, m)
    fn = oracles.spec_value(spec, n)
    fmn = oracles.spec_value(spec, m * n)
    assert abs(fmn - fm * fn) < 1e-12, (m, n)


# sha256 of eval_range(spec, 10**6 + 17).values.tobytes(), frozen before the
# block kernels moved to residue periods and strides.  Every block there holds
# at least 2^14 values, so a kernel change that moves any bit fails here.
PINNED_VALUES = {
    "one":
        "6e7f112cc866d184190480696261daa0172798f3c0fe36a3e98fa1d0678eb405",
    "char:q=4,index=1":
        "08004b3f8a53dce0a4d28580cbed63d4107063d1a9a77103855ac07fa16ff0db",
    "char:q=5,index=1":
        "68c50511463b586797aff5a8dfc4753f629dc52039dc62fa09df906a827e73cb",
    "char:q=5,index=1,t=2.0":
        "27e7a001c2a833a1727f993b0f3476e5a7c9d02a7a604322bf8a4ca1695f9781",
    "liouville":
        "71cb57e25999cd867aa3606126fb5dcf0a721cc607733f087237b1bddfd4368c",
    "rademacher:seed=1":
        "a054da78e871fb3087f568a46a5c8dc6fa3bee59d3a909fc7bf1b06065166bae",
    "coprime:Q=30":
        "df79bb19078fe6ed330e5cc8065f8f306f146cddf67e2514273edc946d8adf06",
    "one;except=2~0.5~0":
        "802e8fa84ad1fc622793a215281293224f979c2afd199da6eca7f4aca1f9f31f",
    "one;scale_r=0.25":
        "05f10657999b3716b9620ad64d66d43e0f5793d94125fa3fa8f2b15f9aed2313",
    "char:q=5,index=real;except=2~1~0":
        "1466e9c89afa86404b73aed82087911127614dc49cd920816567f1a6c9430175",
    # re-recorded when one-value strides took a fresh output: the real half
    # of f(3^12), the one 3^12 multiple of its block, moved by one ulp
    "char:q=7,index=2;except=3~0.3~0.2":
        "b0790e056dd329bd7279febe68e8fc24e9236001648038f70fba2a981a1e4563",
    "char:q=5,index=1;except=5~-1~0":
        "4391758b48c4d7650aa6b48ad9874267ac5f9e6a6ac7e2d8f7f289d0bca52395",
    "coprime:Q=210;except=7~0.5~0":
        "ded00b68a0bf0a32ee819c627a599cab1fb42ea17492e694cbb587347eb5cceb",
    "rademacher:seed=7;except=5~-1~0;scale_r=0.25":
        "79011bdf61a053b67377d8a1463de5e12f28eb3bda9340ca9b9726d11fbaa29c",
    # frozen before exception strides became table runs: several exception
    # primes, their products, p | q, signed zeros, a twist, and an exception
    # above sqrt(x)
    'char:q=5,index=real;except=2~-1~0':
        "2ade3dfef6b61444b4ceb765d7223bc53ea5e2670837ffd09e9b4279645086c8",
    'char:q=7,index=3;except=2~-1~0,3~0.25~0':
        "b489f436a5bd163131d084def4b0b6edacb0474016594a597c2bbdec749fa3c8",
    'char:q=4,index=1;except=2~-1~0':
        "13f89f8160b8a75d1ad7581c3f3261e9eddc1f7665e6eb2f39e0e072b34d96cb",
    'liouville;except=2~1~0,3~-1~0':
        "4b5603e124edb242fa8138bc4b218dcb450362324209186a10b0444516ba888a",
    'rademacher:seed=3;except=1009~1~0':
        "1ffe099e9e9752a6578e05fc719ca4b90ec4079e5933d9f210173f811174da57",
    'one;except=2~0.5~0,3~-0.7~0;scale_r=0.3':
        "e03ec84212c24350690b4b2eef461f4b57f936363d76815f2bca368a71d336a6",
    'char:q=5,index=1,t=0.7;except=2~1~0':
        "e84d76dabb01420a1d6e4f19dfcc02e3e2764cf9e0145ccc0132da75a6aaa93a",
    'char:q=7,index=2;except=2~-1~0':
        "163466f04c4e16cbd9207451bb77a0103f3c1b51cd6ec6319cabbe622ed7d62f",
    # frozen while n with exception-smooth part above (hi - lo) // 64 were
    # gathered apart from the table runs: a twist's u, three exception
    # primes, and exception primes dividing q
    'char:q=5,index=1,t=2.0;except=2~0~1,3~0.5~0':
        "c2cb363cb8ef99c0505190db9c64ee823a264f560dc2fbd5f63c7f4b0d4aaa89",
    'char:q=4,index=1;except=3~0~1,5~1~0,7~-1~0':
        "2f8d8bc4e5fbb24edc54adf8b46550fddb77f4e6519975b7314f1f7c7d4b135d",
    'char:q=12,index=1;except=2~0~1,3~-1~0':
        "c4cb32aead988972d326d495ce3615526e38f8e1e9ac3372e30838a0d4db3299",
    # frozen before a complex character with no exception below a block's
    # end took its 1+0j product on the table instead of on the block
    "char:q=7,index=2":
        "2b3ff1cf947f20b6185acdf2043d9c9d535e15df90514bbf431720da3beae378",
    "char:q=13,index=1":
        "a9ef4d775c2897dcaaf408b8039a52394f362ae9ced8d4b7c1176cfe0f514db1",
}


@pytest.mark.parametrize("cfg", list(PINNED_VALUES))
def test_eval_range_bytes_pinned(cfg):
    values = eval_range(build_spec(cfg), 10**6 + 17).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_VALUES[cfg]


def complex_hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_complex_values_do_not_depend_on_block_length(monkeypatch):
    """Complex products give the same bits in blocks of any length, down to
    one value: a character with a non-Gaussian exception.
    Products are taken in one operand order whatever the length (numpy
    elides `a * temp` into `temp *= a` only for temporaries of 2^14 or more
    complex values, and its complex multiply rounds differently with the
    operands swapped), and a one-value operand takes a fresh output (numpy
    multiplies a one-value array into itself by a scalar loop that rounds
    otherwise).  Scans of CHUNK-multiple blocks give the default rows."""
    for cfg, x, blocks in [
        ("char:q=7,index=2;except=3~0.3~0.2", 10**6, (97, 1001, 4096, 2**14 + 1, 2**16, 2**18)),
        ("char:q=7,index=2;except=3~0.3~0.2", 20000, (1,)),
    ]:
        spec = build_spec(cfg)
        want = eval_range(spec, x).values[1:].tobytes()
        cps = [1 << k for k in range(x.bit_length())] + [x]
        prof = stream_profile(spec, x, cps)
        for block in blocks:
            got = np.concatenate(list(iter_blocks(spec, x, block)))
            assert got.tobytes() == want, (cfg, block)
            if block % CHUNK:  # a scan of such blocks lays its chunks from each block start
                continue
            with monkeypatch.context() as patch:
                short_blocks(patch, block)
                got = stream_profile(spec, x, cps)
            assert [complex_hex(s) for s in got.sums] == [
                complex_hex(s) for s in prof.sums], (cfg, block)
            assert [v.hex() for v in got.sups] == [v.hex() for v in prof.sups], (cfg, block)


def test_twisted_values_do_not_depend_on_block_length():
    """One-value blocks give a twisted character the bits of long ones:
    numpy multiplies a one-value array into itself by a scalar loop, which
    rounds the complex product differently."""
    spec = build_spec("char:q=7,index=2,t=0.5")
    want = eval_range(spec, 3000).values[1:].tobytes()
    for block in (1, 97):
        assert np.concatenate(list(iter_blocks(spec, 3000, block))).tobytes() == want, block


@pytest.mark.parametrize("span, block, x", [
    (1 << 10, 1, 3 * 1024 + 37),
    (1 << 13, 97, 50001),
    (1 << 13, 1001, 50001),
    (1 << 13, 4096, 50001),
    (1 << 13, None, 50001),
    (multfun.SUM_SPAN, 97, 50001),
    (multfun.SUM_SPAN, 4096, 50001),
])
def test_sum_blocks_matches_span_sums(monkeypatch, span, block, x):
    """sum_blocks over blocks of any length gives the bits of one np.sum per
    SUM_SPAN values of the materialized range, plain and with a term and
    the mu^2 mask: its walk replays numpy's pairwise split, including the
    leaves that cross a block edge."""
    def term(n, v):
        return np.multiply(np.exp(-(0.5 + 3j) * np.log(n)), v)

    n = np.arange(1, x + 1, dtype=np.float64)
    mu2 = squarefree_block(1, x + 1, primes_upto(math.isqrt(x)))
    cases = []
    for cfg in ["char:q=5,index=1;except=2~0.3~0.4", "one;scale_r=0.25", "liouville"]:
        spec = build_spec(cfg)
        v = eval_range(spec, x).values[1:]
        cases.append((spec, oracles.span_sums(v, span), oracles.span_sums(term(n, v * mu2), span)))
    monkeypatch.setattr(multfun, "SUM_SPAN", span)
    if block:
        short_blocks(monkeypatch, block)
    for spec, plain, termed in cases:
        assert complex_hex(sum_blocks(spec, x)) == complex_hex(plain), spec_config(spec)
        assert complex_hex(sum_blocks(spec, x, term, squarefree=True)) == complex_hex(termed)


def test_sum_blocks_memory_ceiling():
    """sum_blocks holds default blocks and their terms, not a whole span:
    its traced peak past 2^22 values stays below 48 MB."""
    spec = build_spec("char:q=5,index=1;except=2~0.3~0.4")
    tracemalloc.start()
    try:
        sum_blocks(spec, (1 << 22) + 5, lambda n, v: np.multiply(np.exp(-0.5 * np.log(n)), v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak


@pytest.mark.parametrize("cfg", [
    "char:q=7,index=2,t=0.5",
    "char:q=5,index=1,t=2.0",
    "rademacher:seed=5;except=3~0.5~0",
])
def test_prime_values_are_the_sieve_values(cfg):
    """prime_unit_value, value_at_primes and the sieve give f(p) in the same
    bits at every prime below 2e5, and on fewer primes than numpy's 2^14-value
    temporary elision: the base value has one recipe."""
    spec = build_spec(cfg)
    x = 2 * 10**5
    ps = primes_upto(x)
    want = eval_range(spec, x).values[ps].astype(np.complex128)
    assert value_at_primes(spec, ps).tobytes() == want.tobytes()
    assert value_at_primes(spec, ps[:1000]).tobytes() == want[:1000].tobytes()
    scalar = np.array([prime_unit_value(spec, p) for p in ps.tolist()])
    assert scalar.tobytes() == want.tobytes()


def test_prime_unit_value_past_int64():
    """An exception prime may reach 2^64; any other p from 2^63 up is refused
    with a ValueError naming it."""
    big, other = 2**64 - 59, sympy.nextprime(2**63)
    spec = build_spec(f"rademacher:seed=5;except={big}~0.5~0")
    assert prime_unit_value(spec, big) == 0.5
    with pytest.raises(ValueError, match=str(other)):
        prime_unit_value(spec, other)


def test_differing_primes():
    """Ascending candidates where two specs may differ, or None when their
    tails or dampings differ."""
    one = make_spec(One())
    assert differing_primes(build_spec("coprime:Q=30"), one) == [2, 3, 5]
    assert differing_primes(build_spec("coprime:Q=12;except=2~0.5~0"),
                            build_spec("one;except=7~-1~0")) == [2, 3, 7]
    assert differing_primes(build_spec("char:q=5,index=1,t=0.5;except=11~0~0"),
                            build_spec("char:q=5,index=1,t=0.5")) == [11]
    assert differing_primes(build_spec("char:q=5,index=1,t=0.5"),
                            build_spec("char:q=5,index=1,t=0.7")) is None
    assert differing_primes(build_spec("one;scale_r=0.25"), one) is None
    assert differing_primes(build_spec("one;scale_r=0.25"),
                            build_spec("one;scale_r=0.25;except=2~0.5~0")) == [2]
    assert differing_primes(make_spec(Liouville()), one) is None
    assert differing_primes(build_spec("rademacher:seed=1"),
                            build_spec("rademacher:seed=2")) is None


def _assert_matches_reference(spec, lo, hi):
    """_eval_block equals oracles.residue_values: bit for bit when every value
    is in {0, +-1, +-i}, else to a few ulps (the exception products are
    multiplied in another order)."""
    got = eval_block(spec, lo, hi)
    want = oracles.residue_values(spec, lo, hi)
    assert got.dtype == (np.float64 if is_real_spec(spec) else np.complex128)
    if is_real_spec(spec):
        assert not want.imag.any()
        want = want.real
    if is_exact_spec(spec):
        assert np.array_equal(got, want), (spec_config(spec), lo, hi)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15,
                                   err_msg=f"{spec_config(spec)} [{lo}, {hi})")


def _random_character(q: int) -> DirichletCharacter:
    """Random unit values mod q standing in for a character: the block
    kernel reads only the table, and a real character mod 999983 takes
    seconds to build."""
    ang = np.random.default_rng(q).uniform(0, 2 * np.pi, q)
    return DirichletCharacter(modulus=q, index=1, values=np.exp(1j * ang),
                              exponents=(1,), principal=False, real=False,
                              conductor=q)


@pytest.mark.parametrize("q,index,p_in,p_out", [
    (3, 1, 3, 2),
    (4, 1, 2, 3),
    (5, 1, 5, 2),
    (7, 2, 7, 3),
    (999983, None, 999983, 2),
])
def test_character_block_matches_mod_reference(q, index, p_in, p_out):
    """Period copies with lo % q != 0 and exception strides at a prime that
    divides q and at one that does not, against np.mod on every n."""
    from multsum import character_by_index

    chi = _random_character(q) if index is None else character_by_index(q, index)
    big = q > 1000
    blocks = ([(q - 777, q + 20_000), (2 * q - 5, 2 * q + 100), (q + 1, q + 2)] if big
              else [(q + 1, q + 3), (2, 2 + q), (1, 3 * q + 1), (5 * q + 2, 5 * q + 4099)])
    for exceptions in ({}, {p_in: -1}, {p_out: 1j}, {p_in: 1j, p_out: 0.5 + 0.25j}):
        spec = make_spec(CharacterTwist(chi), exceptions=exceptions)
        for lo, hi in blocks:
            if not big:
                assert lo % q != 0
            _assert_matches_reference(spec, lo, hi)


@pytest.mark.parametrize("cfg,x", [
    ("coprime:Q=1", 1000),
    ("coprime:Q=30", 10**5),
    ("coprime:Q=210;except=7~0.5~0,11~-1~0", 10**5),
    ("coprime:Q=437", 300),  # 19 and 23: above sqrt(300), below 300
    ("coprime:Q=437;except=23~-1~0", 300),
    ("coprime:Q=2000006", 3 * 10**6),  # 2 * 1000003
    ("coprime:Q=2305843009213693951", 10**5),  # 2^61 - 1, prime
])
def test_coprime_values_match_gcd_reference(cfg, x):
    """Strided zeroing at every prime of Q below the block's end, against
    np.gcd on every n over the whole range."""
    spec = build_spec(cfg)
    got = eval_range(spec, x).values[1:]
    want = oracles.residue_values(spec, 1, x + 1)
    assert not want.imag.any()
    assert np.array_equal(got, want.real)


WALK_SPECS = [
    "char:q=5,index=real;except=2~-1~0,3~1~0",
    "char:q=12,index=1;except=2~0~1,3~-1~0",  # both exception primes divide q
    "char:q=7,index=2,t=0.5;except=2~0.5~0.5,3~-1~0",
    "char:q=7,index=1;except=3~0~1,1009~-1~0",
    "liouville;except=2~1~0,3~-1~0,1009~0~1",
    "rademacher:seed=4;except=2~-1~0,3~1~0,1009~1~0",
    "coprime:Q=6;except=3~-1~0,1009~0.5~0",
    "one;except=2~-1~0,3~0~1",
]
WALK_BLOCKS = [
    (2**29 - 3, 2**29 + 4),  # the deepest power of 2 below 1e9
    (3**18 - 2, 3**18 + 3),  # and of 3
    (2**29, 2**29 + 1),  # one-value blocks
    (3**18, 3**18 + 1),
    (6**11, 6**11 + 1),
    (1, 2),
    (10**6 + 1, 10**6 + 301),  # lo is a multiple of neither 2 nor 3
    (1, 1009),  # the exception prime 1009 is >= hi
    (1000, 1009),
    (1009, 1010),
    (1009 * 2**8 - 7, 1009 * 2**8 + 90),
]


@pytest.mark.parametrize("cfg", WALK_SPECS)
def test_exception_walk_edges(cfg):
    """_eval_block against factorization on the edges of the exception walk:
    blocks at the deepest powers of 2 and 3 below 1e9, one-value blocks,
    blocks starting off every stride, and an exception prime at or above hi.
    Blocks this short hold few multiples of each stride, and many strides
    with one multiple or none."""
    spec = build_spec(cfg)
    for lo, hi in WALK_BLOCKS:
        vals = eval_block(spec, lo, hi)
        assert len(vals) == hi - lo
        for n in range(lo, hi):
            got, want = complex(vals[n - lo]), oracles.spec_value(spec, n)
            if is_exact_spec(spec):
                assert got == want, (cfg, n, got, want)
            else:
                assert abs(got - want) <= 1e-14, (cfg, n, got, want)


def test_exception_walk_covers_large_sets():
    """Ten small exception primes: the walk's table runs, one per
    exception-smooth d below hi, still give chi(u) times the exception
    product on every n of a block."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    exceptions = {p: (-1) ** i * 1j for i, p in enumerate(primes)}
    spec = make_spec(CharacterTwist(character_by_index(31, 3)), exceptions=exceptions)
    for lo, hi in ((1, 5000), (10**8 - 777, 10**8 + 4321)):
        _assert_matches_reference(spec, lo, hi)


# blocks of a stream to 1e9 at the edges of the log sieve's margin: the first
# block, the deepest powers of 2 and 3, the square of 31607 (the largest prime
# below sqrt(1e9)), and the last block
MARGIN_BLOCKS = [
    (1, 1 << 16),
    (2**29 - 2**15, 2**29 + 2**15),
    (3**18 - 2**15, 3**18 + 2**15),
    (31607**2 - 2**15, 31607**2 + 2**15),
    (STREAM_LIMIT + 1 - 2**16, STREAM_LIMIT + 1),
]


@pytest.mark.parametrize("cfg", ["liouville", "liouville;except=2~1~0,3~-1~0",
                                 "liouville;except=3~0~1,31627~-1~0"])
def test_log_sieve_margin(cfg):
    """Liouville's uint16 log weights (multfun._sign_parity) on MARGIN_BLOCKS:
    on every n, acc < 15 (b - 1), b the bit length of n, exactly where n
    keeps a prime above sqrt(hi - 1) once the sieved primes are divided out
    (oracles.sieve_cofactor).  The n nearest that threshold on either side,
    the least prime above sqrt(hi - 1) and its largest multiple in the
    block, and the edge powers agree with factorization, with exceptions at
    2 and 3 and one above sqrt(1e9); so do short streams from n = 1 in
    blocks of up to 8 values, where hi - 1 < 8 leaves no margin."""
    spec = build_spec(cfg)
    for x, block in itertools.product(range(1, 40), (1, 2, 3, 5, 8)):
        got = np.concatenate(list(iter_blocks(spec, x, block)))
        assert got.tolist() == [oracles.spec_value(spec, n) for n in range(1, x + 1)], (x, block)
    stream = _Stream(spec, STREAM_LIMIT, primes_upto(math.isqrt(STREAM_LIMIT)))
    (log,) = stream.passes
    for lo, hi in MARGIN_BLOCKS:
        acc = log(lo, np.empty(hi - lo, dtype=np.uint16)).astype(np.int64)
        n = np.arange(lo, hi)
        root = math.isqrt(hi - 1)
        sieved = {p for p in stream.base_primes.tolist() if p <= root} | spec.exceptions.keys()
        left = oracles.sieve_cofactor(lo, hi, sieved) > 1
        gap = acc - 15 * (np.frexp(n.astype(np.float64))[1] - 1)
        assert np.array_equal(gap < 0, left), (cfg, lo)
        vals = _eval_block(stream, lo, hi)
        c = int(sympy.nextprime(root))
        edges = [m for m in (2**29, 3**18, 31607**2, c, (hi - 1) // c * c) if lo <= m < hi]
        edges += [lo + int(np.argmax(np.where(left, gap, -999))),
                  lo + int(np.argmin(np.where(left, 999, gap)))]
        for m in edges:
            assert complex(vals[m - lo]) == oracles.spec_value(spec, m), (cfg, m)


@pytest.mark.parametrize("cfg", ["liouville", "rademacher:seed=11",
                                 "liouville;except=2~-1~0,3~0~1",
                                 "rademacher:seed=11;except=2~1~0,3~-1~0,31627~0~1"])
def test_pm1_blocks_near_stream_limit_match_factorization(cfg):
    """A seeded random sample of n from the last two derived-length blocks
    below 1e9 agrees with factorization."""
    spec = build_spec(cfg)
    start = STREAM_LIMIT + 1 - 2 * block_length(STREAM_LIMIT)
    vals = np.concatenate(list(iter_blocks(spec, STREAM_LIMIT, start=start)))
    rng = np.random.default_rng(2020)
    for m in rng.integers(start, STREAM_LIMIT + 1, 300).tolist():
        assert complex(vals[m - start]) == oracles.spec_value(spec, m), (cfg, m)


def test_presieve_tables_match_a_direct_sieve():
    """Over one SIEVE_PERIOD the pass tables hold what the prime powers
    dividing the period add, and no such power is strided as well:
    Rademacher's one signed pass has magnitude gcd(n, period) and is
    negative where the -1 primes of gcd(n, period), counted with
    multiplicity, are odd in number, and Liouville's accumulator is the
    sum of 2 round(8 log2 p) + 1 (an exception prime: + 0) over them."""
    x = 10**6
    i = np.arange(SIEVE_PERIOD)
    g = np.gcd(i, SIEVE_PERIOD)
    v = {}
    for p in (2, 3, 5, 7, 11):
        v[p], rest = np.zeros(SIEVE_PERIOD, dtype=np.int64), g.copy()
        while (hit := rest % p == 0).any():
            v[p] += hit
            rest[hit] //= p
        assert not SIEVE_PERIOD % p**int(v[p].max())
    for cfg in ("rademacher:seed=1;except=3~1~0", "liouville;except=3~1~0"):
        spec = build_spec(cfg)
        stream = _Stream(spec, x, primes_upto(math.isqrt(x)))
        for sieve in stream.passes:
            assert len(sieve.table) == SIEVE_PERIOD
            assert not (SIEVE_PERIOD % sieve.q == 0).any()
        if isinstance(spec.base, Liouville):
            weight = {p: 2 * round(8 * math.log2(p)) + (p not in spec.exceptions) for p in v}
            want = sum(v[p] * weight[p] for p in v)
            assert np.array_equal(stream.passes[0].table, want)
        else:
            minus = {p: spec_value_sign(spec, p) < 0 and p not in spec.exceptions for p in v}
            assert len(stream.passes) == 1
            table = stream.passes[0].table
            assert np.array_equal(np.abs(table), g)
            assert np.array_equal(table < 0, sum(v[p] * minus[p] for p in v) % 2 == 1)


@pytest.mark.parametrize("cfg", ["liouville", "rademacher:seed=2;except=3~0~1"])
def test_pm1_blocks_share_no_memory(cfg):
    """The blocks of a +-1 stream come from reused scratch arrays, yet each
    one handed out is its own array."""
    spec = build_spec(cfg)
    x = 5 * CHUNK + 7
    blocks = list(iter_blocks(spec, x, CHUNK))
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(blocks, 2))
    assert np.concatenate(blocks).tobytes() == eval_range(spec, x).values[1:].tobytes()
