"""Tests for lab: witness constructions, profiles, seeded walks."""

import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from multsum import (
    CapacityError,
    CharacterTwist,
    Liouville,
    One,
    RandomRademacher,
    SearchError,
    character_by_index,
    concentration_experiment,
    decade_checkpoints,
    dyadic_checkpoints,
    eval_range,
    factorize_big,
    growth_profile,
    is_squarefree_big,
    make_spec,
    modified_spec,
    random_walk_mc,
    rotation_witness,
    squarefree_pair,
    stream_profile,
    thread_cap,
)
from multsum import lab, multfun
from multsum.accum import CHUNK
from multsum.multfun import STREAM_LIMIT, RademacherSeeds


def test_is_squarefree_big_matches_naive():
    for n in list(range(1, 3000)) + [10**12, 10**12 + 39, 4 * 10**12]:
        assert is_squarefree_big(n) == oracles.naive_squarefree(n), n
    # cofactor shapes beyond the trial range: p^2, p*q, and p
    p, q = 1_000_003, 1_000_033
    assert not is_squarefree_big(p * p)
    assert is_squarefree_big(p * q)
    assert is_squarefree_big(7 * p)
    assert not is_squarefree_big(49 * p)
    # above 1e18 such a cofactor can have three prime factors
    for n in (p**3, p * p * q, p * q * q):
        assert not is_squarefree_big(n), n
    assert is_squarefree_big(p * q * 1_000_037)


def test_factorize_big_matches_trial():
    p, q = 1_000_003, 1_000_033
    for n in (2, 360, 97 * 89, 2**20, 10**12 + 39, 1_000_003 * 7, p**3, p * p * q):
        assert factorize_big(n) == oracles.trial_factorize(n), n


def test_rotation_witness_frozen(chi4):
    f = make_spec(CharacterTwist(chi4), exceptions={5: 1j})
    w = rotation_witness(f, chi4, 4, [(5, 1, 1)])
    assert (w.H, w.W) == (4, 576)
    assert (w.m, w.m_prime) == (5, 4)
    assert w.window_sum == 0
    assert w.window_prime_sum == -1 + 1j
    assert w.measured == w.predicted == 1 - 1j
    assert w.ok
    # doubling the planned valuation doubles the gap through the phase
    w2 = rotation_witness(f, chi4, 4, [(5, 2, 1)])
    assert (w2.m, w2.m_prime) == (5, 99)
    assert w2.measured == w2.predicted == 2
    assert w2.ok


def test_rotation_witness_elements_verified(chi4):
    """Window elements carry their values; both match direct factorization."""
    f = make_spec(CharacterTwist(chi4), exceptions={5: 1j})
    w = rotation_witness(f, chi4, 4, [(5, 1, 1)])
    assert len(w.elements) == len(w.elements_prime) == 4
    for off, (n, val) in enumerate(w.elements, start=1):
        assert n == w.W * w.m + off
        assert complex(val) == oracles.spec_value(f, n), n
    for off, (n, val) in enumerate(w.elements_prime, start=1):
        assert n == w.W * w.m_prime + off
        assert complex(val) == oracles.spec_value(f, n), n


def test_rotation_witness_primorial_window(chi4):
    f = make_spec(CharacterTwist(chi4), exceptions={5: 1j})
    w = rotation_witness(f, chi4, 4, [(5, 1, 1)], modulus_kind="primorial", w=4)
    assert w.W == (2 * 3) ** 4  # primes up to 4, each to the 4th power
    assert w.measured == w.predicted
    assert w.ok


def test_rotation_witness_validation(chi4, chi5):
    f = make_spec(CharacterTwist(chi4), exceptions={5: 1j})
    # an empty plan is legal; nothing survives the pairing
    trivial = rotation_witness(f, chi4, 4, [])
    assert trivial.measured == trivial.predicted == 0 and trivial.ok
    with pytest.raises(ValueError):
        rotation_witness(f, chi4, 4, [(3, 1, 1)])  # plan prime <= H
    with pytest.raises(ValueError):
        rotation_witness(f, chi4, 4, [(7, 1, 1)])  # 7 not a deviation prime
    with pytest.raises(ValueError):
        rotation_witness(f, chi4, 4, [(5, 0, 1)])  # valuation must be >= 1
    with pytest.raises(ValueError):
        rotation_witness(f, chi4, 4, [(5, 1, 5)])  # residue beyond H
    with pytest.raises(ValueError):
        rotation_witness(f, chi4, 4, [(5, 1, 1), (5, 1, 2)])  # repeated prime
    with pytest.raises(ValueError):
        rotation_witness(make_spec(One()), chi4, 4, [(5, 1, 1)])  # wrong base
    with pytest.raises(ValueError):
        rotation_witness(f, chi4, 4, [(5, 1, 1)], modulus_kind="primorial", w=3)


def test_rotation_witness_window_modulus_refusals(chi4):
    f = make_spec(CharacterTwist(chi4), exceptions={5: 1j})
    # 5 > H but 5 | W = (2*3*5)^5, so W has no inverse mod 5^2
    with pytest.raises(ValueError, match="plan prime 5 divides the window modulus"):
        rotation_witness(f, chi4, 4, [(5, 1, 1)], modulus_kind="primorial", w=5)
    # w is the primorial exponent; the factorial modulus would ignore it
    for w in (3, 7):
        with pytest.raises(ValueError, match="primorial"):
            rotation_witness(f, chi4, 4, [(5, 1, 1)], w=w)


def test_windows_past_factor_limit_refused(chi4, chi5):
    """A window past FACTOR_LIMIT is refused in terms of H, W and w: at H = 13
    the first window (H!)^2 + 1.. already passes it, at H = 12 the primed
    class does (m' = 70), and so does a large primorial exponent at m = 1."""
    f = make_spec(CharacterTwist(chi4), exceptions={17: 1j})
    with pytest.raises(CapacityError, match=r"at m=1 passes FACTOR_LIMIT=4000000000000000000: "
                       r"H=13, W = \(H!\)\^2 = 38775788043632640000"):
        rotation_witness(f, chi4, 13, [(17, 1, 1)])
    with pytest.raises(CapacityError, match=r"at m=70 .*H=12, W = \(H!\)\^2 = 229442532802560000"):
        rotation_witness(f, chi4, 12, [(17, 1, 1)])
    with pytest.raises(CapacityError, match=r"H=4, w=40, W = .* = a 515-digit number"):
        rotation_witness(f, chi4, 4, [(17, 1, 1)], modulus_kind="primorial", w=40)
    # past 64, W > 2^64 is refused before it is built, and so is a plan
    # power past the limit before the CRT class p^(k+1) is
    for H, kind, w in ((4 * 10**18, "factorial", None), (4, "primorial", 65)):
        with pytest.raises(CapacityError, match="must be <= 64"):
            rotation_witness(f, chi4, H, [(17, 1, 1)], modulus_kind=kind, w=w)
    for k in (16, 4 * 10**18):  # 17^15 is below FACTOR_LIMIT, 17^16 above
        with pytest.raises(CapacityError, match=f"plan entry \\(17,{k},1\\)"):
            rotation_witness(f, chi4, 4, [(17, k, 1)])
    witness = rotation_witness(f, chi4, 11, [(17, 1, 1)])
    assert witness.ok and witness.m_prime == 254  # still inside the limit
    g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 17: 1, 19: -1})
    with pytest.raises(CapacityError, match=r"at m=1 .*H=13, W = \(H!\)\^2"):
        squarefree_pair(g, chi5, 13, [17, 19], [1, 6])


def test_squarefree_pair_frozen(chi5):
    g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 1, 11: -1})
    pair = squarefree_pair(g, chi5, 6, [7, 11], [1, 6])
    assert pair.W == 518400  # (6!)^2
    assert pair.m == 262278863
    assert pair.m_prime == 33444951945
    assert pair.aux == {2: 13, 3: 17, 5: 19}
    assert pair.window_sum == 2
    assert pair.window_prime_sum == -2
    assert pair.measured == pair.predicted == 4
    assert pair.sign == 1
    assert pair.ok


def test_squarefree_pair_membership(chi5):
    """Window elements are certified through their actual factorizations."""
    g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 1, 11: -1})
    pair = squarefree_pair(g, chi5, 6, [7, 11], [1, 6])
    for m in (pair.m, pair.m_prime):
        base = pair.W * m
        for r in range(1, 7):
            n = base + r
            assert is_squarefree_big(n) == (r in (1, 6)), (m, r)
            aux = pair.aux.get(r)
            if aux is not None:  # the square that kills this residue class
                assert n % (aux * aux) == 0, (m, r, aux)
    # the planned primes divide the primed window exactly once, and stay out
    # of the first window entirely (m = 0 mod p pushes them off the offsets)
    for p, r in ((7, 1), (11, 6)):
        n = pair.W * pair.m_prime + r
        assert n % p == 0 and n % (p * p) != 0, (p, r)
        assert pair.m % p == 0
        assert all((pair.W * pair.m + j) % p != 0 for j in range(1, 7))


def test_squarefree_pair_validation(chi4, chi5):
    g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 1, 11: -1})
    with pytest.raises(ValueError):
        squarefree_pair(g, chi5, 6, [7], [1, 2])  # residue g-signs +1 vs -1
    with pytest.raises(ValueError):
        squarefree_pair(g, chi5, 6, [13], [1])  # g(13)chi(13) = +1: 13 does not deviate
    g_missing = make_spec(CharacterTwist(chi5), exceptions={7: 1})
    with pytest.raises(ValueError):
        squarefree_pair(g_missing, chi5, 6, [7], [1])  # g(5) unset at p | q
    complex_chi = character_by_index(5, 1)
    with pytest.raises(ValueError):
        squarefree_pair(
            make_spec(CharacterTwist(complex_chi), exceptions={5: 1}),
            complex_chi, 6, [7], [1],
        )
    with pytest.raises(ValueError):
        squarefree_pair(g, chi5, 6, [7], [5])  # residue hits a deviation prime


# each case breaks one rule of the shared plan check: (rotation plan,
# rotation keywords, squarefree-pair primes and residues, message).  The
# rotation runs on chi4 with f(5) = i, f(13) = -i and H = 4, the pair on chi5
# with g = +1 at 5 and 7, -1 at 11 and H = 6.  A plan prime dividing q stays
# at or below H unless a primorial modulus reaches past H.
PLAN_CASES = {
    "prime <= H": ([(3, 1, 1)], {}, [3], [1], r"plan prime 3 must be a prime"),
    "composite": ([(9, 1, 1)], {}, [9], [1], r"plan prime 9 must be a prime"),
    "repeated prime": ([(5, 1, 1), (5, 1, 2)], {}, [7, 7], [1, 6], "distinct"),
    "repeated residue": ([(5, 1, 1), (13, 1, 1)], {}, [7, 11], [1, 1], "distinct"),
    "divides q": (
        [(2, 1, 1)], {"H": 1, "modulus_kind": "primorial", "w": 2}, [5], [1],
        r"plan prime [25] ",
    ),
    "not deviating": ([(17, 1, 1)], {}, [13], [1], "does not deviate"),
}


@pytest.mark.parametrize("construction", ["rotation", "sf-pair"])
@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_plan_validation_shared(construction, case, chi4, chi5):
    plan, kw, primes, residues, match = PLAN_CASES[case]
    with pytest.raises(ValueError, match=match):
        if construction == "rotation":
            f = make_spec(CharacterTwist(chi4), exceptions={5: 1j, 13: -1j})
            rotation_witness(f, chi4, **{"H": 4, "plan": plan, **kw})
        else:
            g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 1, 11: -1})
            squarefree_pair(g, chi5, 6, primes, residues)


def test_window_refusals_before_the_scan(chi4, chi5):
    """A damped spec at a factored number, H < 1, an unknown modulus kind, q
    not dividing W, a deviation prime <= H dividing q with a nonzero value,
    and in a squarefree pair a g(p) off +-1 or a residue with a square, are
    each refused with a ValueError naming the fault."""
    f = make_spec(CharacterTwist(chi4), exceptions={5: 1j})
    with pytest.raises(ValueError, match="undamped"):
        lab.value_from_factors(make_spec(One(), scale_r=0.5), [(2, 1)])
    with pytest.raises(ValueError, match="H must be >= 1"):
        rotation_witness(f, chi4, 0, [])
    with pytest.raises(ValueError, match="unknown window modulus kind 'cyclic'"):
        rotation_witness(f, chi4, 4, [], modulus_kind="cyclic")
    with pytest.raises(ValueError, match="q=5 does not divide the window modulus"):
        rotation_witness(make_spec(CharacterTwist(chi5)), chi5, 4, [])  # W = (4!)^2
    with pytest.raises(ValueError, match="deviation prime 2 <= H shares a factor with q"):
        rotation_witness(make_spec(CharacterTwist(chi4), exceptions={2: 1}), chi4, 4, [])
    g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 1, 11: -1})
    with pytest.raises(ValueError, match=r"g\(7\) must be \+-1"):
        squarefree_pair(make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 0.5}),
                        chi5, 6, [7], [1])
    with pytest.raises(ValueError, match="residue 4 must be squarefree"):
        squarefree_pair(g, chi5, 6, [7], [4])


def test_squarefree_pair_refuses_mixed_signs(chi5):
    """g(1) = +1 but g(2) = chi5(2) = -1: the gap would not be 2t * sign."""
    g = make_spec(CharacterTwist(chi5), exceptions={5: 1, 7: 1, 11: -1})
    with pytest.raises(ValueError, match="common g-sign"):
        squarefree_pair(g, chi5, 6, [7, 11], [1, 2])


def test_growth_profile_plain_matches_brute(chi4):
    spec = modified_spec(chi4, 3, 1)
    prof = growth_profile(spec, 1 << 14)
    assert prof.kind == "plain"
    assert prof.checkpoints == dyadic_checkpoints(1 << 14)
    rng = eval_range(spec, 1 << 14)
    cum = np.cumsum(rng.values[1:])
    for x, s, sup in zip(prof.checkpoints, prof.sums, prof.sups):
        assert s == complex(cum[x - 1]), x
        assert sup == float(np.max(np.abs(cum[:x]))), x


def test_growth_profile_squarefree_matches_brute(chi5):
    g = make_spec(CharacterTwist(chi5), exceptions={2: 1})
    N = 4000
    cps = [100, 1000, 4000]
    prof = growth_profile(g, N, kind="squarefree", checkpoints=cps)
    vals = eval_range(g, N).values.copy()
    for n in range(1, N + 1):
        if not oracles.naive_squarefree(n):
            vals[n] = 0
    cum = np.cumsum(vals[1:])
    for x, s, sup in zip(cps, prof.sums, prof.sups):
        assert s == complex(cum[x - 1]), x
        assert sup == float(np.max(np.abs(cum[:x]))), x


def test_growth_profile_regimes():
    grows = growth_profile(make_spec(One()), 1 << 12)
    assert grows.regime == "linear"
    assert grows.slope > 0
    flat = growth_profile(modified_spec(character_by_index(4, 1), 3, -1), 1 << 14)
    assert flat.regime == "bounded"
    with pytest.raises(ValueError):
        growth_profile(make_spec(One()), 100, kind="cubefree")


def test_growth_profile_slope_needs_two_late_checkpoints():
    """With one or two checkpoints the later half holds fewer than two
    points to fit, so the slope is 0."""
    for cps in ([100], [10, 100]):
        prof = growth_profile(make_spec(One()), 100, checkpoints=cps)
        assert prof.slope == 0.0 and prof.sups == [float(c) for c in cps]


def test_checkpoint_builders():
    assert dyadic_checkpoints(16) == [1, 2, 4, 8, 16]
    assert dyadic_checkpoints(20) == [1, 2, 4, 8, 16, 20]
    assert decade_checkpoints(1000) == [1, 10, 100, 1000]
    assert decade_checkpoints(2500) == [1, 10, 100, 1000, 2500]
    for build in (dyadic_checkpoints, decade_checkpoints):
        for N in (0, -3):
            with pytest.raises(ValueError, match=f"N={N}"):
                build(N)
    with pytest.raises(ValueError, match="N=0"):
        growth_profile(make_spec(One()), 0)


def test_random_walk_mc_median():
    out = random_walk_mc(5, 0.0, 10**4)
    assert out.seeds == [0, 1, 2, 3, 4]
    assert out.checkpoints == decade_checkpoints(10**4)
    assert len(out.sups_per_seed) == 5
    med = np.median(np.array(out.sups_per_seed), axis=0)
    assert out.median_sups == med.tolist()
    # each seed's row is exactly its standalone profile
    solo = growth_profile(
        make_spec(RandomRademacher(seed=3)), 10**4,
        checkpoints=decade_checkpoints(10**4),
    )
    assert out.sups_per_seed[3] == solo.sups


def test_random_walk_mc_thread_count_invariance():
    """The merged output is bit-identical no matter the thread cap."""
    script = (
        "import json, multsum\n"
        "out = multsum.random_walk_mc(4, 0.25, 10**4)\n"
        "print(json.dumps(out.sups_per_seed))\n"
    )
    rows = []
    for threads in ("1", "4"):
        env = dict(os.environ, MULTSUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        rows.append(r.stdout)
    assert rows[0] == rows[1]


MC_N = 3 * (1 << 18) + 5  # three full 2^18-value blocks and a 5-value one
MC_CPS = [1, 10, 1000, (1 << 18) - 1, 1 << 18, (1 << 18) + 1, 1 << 19, MC_N]


def test_random_walk_mc_multi_block_thread_invariance():
    """Over several blocks the pool evaluates ahead of the scan; the bytes
    match for one worker, two, three and more workers than blocks, for two
    damped families (r = 1: steps near 1/n, where the float bounds' margin
    is widest beside |f|) and an exact one (whose prefix sums go out of
    place)."""
    script = (
        "import json, multsum\n"
        "for r in (0.25, 0.0, 1.0):\n"
        f"    out = multsum.random_walk_mc([0, 1, 2, 3, 4, 5, 6, -1, 2**64 + 100], r, "
        f"{MC_N}, {MC_CPS})\n"
        "    print(json.dumps([[v.hex() for v in row] for row in out.sups_per_seed]"
        " + [[v.hex() for v in out.median_sups]]))\n"
    )
    rows = []
    for threads in ("1", "2", "3", "8"):
        env = dict(os.environ, MULTSUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        rows.append(r.stdout)
    assert len(set(rows)) == 1, rows


@pytest.mark.parametrize("seeds, r, n", [
    ([5], 0.25, MC_N),
    (list(range(8)), 1.0, MC_N),  # a full uint8 word
    (list(range(8)) + [2**64 + 100], 0.0, MC_N),  # uint16; a seed past 2^64
    (list(range(15)) + [-1, 2**64 + 100], 0.25, MC_N),  # uint32; keys mod 2^64
    (list(range(-1, 64)), 0.0, (1 << 18) + 5),  # a second 64-seed group
])
def test_random_walk_mc_rows_match_standalone_profiles(seeds, r, n):
    cps = [c for c in MC_CPS if c < n] + [n]
    out = random_walk_mc(seeds, r, n, cps)
    assert out.checkpoints == cps
    assert len(out.sups_per_seed) == len(seeds)
    for seed, row in zip(seeds, out.sups_per_seed):
        solo = stream_profile(make_spec(RandomRademacher(seed=seed), scale_r=r), n, cps)
        assert [v.hex() for v in row] == [v.hex() for v in solo.sups], seed


@pytest.mark.parametrize("r", [0.0, 0.25])
def test_random_walk_mc_chunk_edge_checkpoints(r):
    """Checkpoints on either side of a chunk start: every seed's row equals
    its standalone profile and the materialized prefix sum's running max."""
    n = 3 * CHUNK + 5
    cps = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, n]
    seeds = [1, 2, 3, 2**64 + 5]
    out = random_walk_mc(seeds, r, n, cps)
    for seed, row in zip(seeds, out.sups_per_seed):
        spec = make_spec(RandomRademacher(seed=seed), scale_r=r)
        solo = stream_profile(spec, n, cps)
        _, sups = oracles.naive_profile(eval_range(spec, n).values, cps, r == 0)
        assert [v.hex() for v in row] == [v.hex() for v in solo.sups] == [
            v.hex() for v in sups], seed


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("MULTSUM_THREADS", "3")
    assert thread_cap() == 3
    monkeypatch.setenv("MULTSUM_THREADS", "0")
    with pytest.raises(ValueError):
        thread_cap()
    monkeypatch.setenv("MULTSUM_THREADS", "abc")
    with pytest.raises(ValueError, match="MULTSUM_THREADS must be a positive "
                       "integer, got 'abc'"):
        thread_cap()
    monkeypatch.delenv("MULTSUM_THREADS", raising=False)
    assert thread_cap() >= 1


def test_random_walk_mc_validation(monkeypatch):
    with pytest.raises(ValueError):
        random_walk_mc(0, 0.0, 100)
    with pytest.raises(ValueError):
        random_walk_mc([1, 2], -0.5, 100)

    # every refusal comes before a block is evaluated or a thread started
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setenv("MULTSUM_THREADS", "2")
    monkeypatch.setattr(multfun, "ThreadPoolExecutor", no_work)
    monkeypatch.setattr(RademacherSeeds, "block", no_work)
    for r in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale_r"):
            random_walk_mc([1, 2], r, MC_N)
    with pytest.raises(CapacityError):
        random_walk_mc([1, 2], 0.25, STREAM_LIMIT + 1)
    # a parity word per value for every 64 seeds must fit EVAL_CAPACITY:
    # 31,680 seeds up to N near 1.7e7, 3,904 at N = 1e9
    for seeds, n in ((4000000000000000001, 100), (31_681, MC_N),
                     (list(range(31_681)), MC_N), (3_905, STREAM_LIMIT)):
        with pytest.raises(CapacityError, match="seeds at N="):
            random_walk_mc(seeds, 0.25, n)
    with pytest.raises(AssertionError, match="work started"):
        random_walk_mc(3_904, 0.25, STREAM_LIMIT)  # at the bound: not refused
    # signs are keyed by the seed mod 2^64, so such seeds would give one walk
    with pytest.raises(ValueError, match="seed 6 given twice"):
        random_walk_mc([6, 5, 6], 0.25, MC_N)
    for seeds, first, twice in (([5, 2**64 + 5, 6], 5, 2**64 + 5),
                                ([0, -1, 2**64 - 1], -1, 2**64 - 1),
                                ([2**65 + 7, 3, 7], 2**65 + 7, 7)):
        with pytest.raises(ValueError, match=f"seeds {first} and {twice} are equal mod 2"):
            random_walk_mc(seeds, 0.25, MC_N)
    for cps in ([], [10, 10], [100, 10], [0, 10], [10, MC_N + 1]):
        with pytest.raises(ValueError, match="checkpoint"):
            random_walk_mc([1, 2], 0.25, MC_N, cps)


def test_concentration_exact_character(chi4):
    """f = chi itself: the window model is exact, deviation identically 0."""
    f = make_spec(CharacterTwist(chi4))
    rep = concentration_experiment(f, chi4, 0.0, 4, 1, 2000)
    assert rep.deviation == 0.0
    assert rep.f_of_q == 0
    assert rep.N0 == 2  # 2 | Q but 3 does not
    assert rep.deviation <= rep.driver


def test_concentration_perturbed(chi5):
    # flipping at 2 cannot show up on the window 10n + 3; flipping at 3 does
    hidden = make_spec(CharacterTwist(chi5), exceptions={2: -chi5(2)})
    rep0 = concentration_experiment(hidden, chi5, 0.0, 10, 3, 3000)
    assert rep0.deviation == 0.0 and rep0.f_of_q == 0

    f = make_spec(CharacterTwist(chi5), exceptions={3: -chi5(3)})
    rep = concentration_experiment(f, chi5, 0.0, 10, 3, 3000)
    assert rep.f_of_q == pytest.approx(-2 / 3)  # single term (1(-1) - 1)/3
    assert 0 < rep.deviation <= rep.driver


def test_concentration_twisted_character(chi4):
    """f = chi4 n^(i/2) against chi4 at t = 1/2: the model carries the
    twist (Qn)^(it), and the deviation stays under the driver."""
    f = make_spec(CharacterTwist(chi4, t=0.5))
    rep = concentration_experiment(f, chi4, 0.5, 60, 7, 1000)
    assert rep.N0 == 5
    assert abs(rep.f_of_q) < 1e-12
    assert rep.deviation <= rep.driver


def test_first_admissible_steps_past_rejected_members():
    """The class 1 mod 7 starts 1, 8, 15, 22: accept(m) = m > 20 first holds
    at the fourth member, and a scan of two members ends in SearchError."""
    assert lab._first_admissible([(1, 7)], lambda m: m > 20, 10) == 22
    with pytest.raises(SearchError, match="first 2 members of the class 1 mod 7"):
        lab._first_admissible([(1, 7)], lambda m: m > 20, 2)


def test_concentration_validation(chi4):
    f = make_spec(CharacterTwist(chi4))
    with pytest.raises(ValueError):
        concentration_experiment(f, chi4, 0.0, 6, 1, 100)  # Q not multiple of 4
    with pytest.raises(ValueError):
        concentration_experiment(f, chi4, 0.0, 4, 2, 100)  # gcd(a, Q) != 1
    with pytest.raises(ValueError):
        concentration_experiment(f, chi4, 0.0, 4, 5, 100)  # a out of range
    for x in (0, 2):  # Q = 4 gives N0 = 2: no prime window (N0, x]
        with pytest.raises(ValueError, match="x=%d must exceed N0=2" % x):
            concentration_experiment(f, chi4, 0.0, 4, 1, x)
    with pytest.raises(CapacityError, match=r"= 5000000000000000000000000000000\*10 \+ 1"):
        concentration_experiment(f, chi4, 0.0, 5 * 10**30, 1, 10)  # past EVAL_CAPACITY
