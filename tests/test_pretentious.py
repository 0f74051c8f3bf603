"""Tests for pretentious: distances, prime sums, mean-value predictions."""

import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multsum import (
    CapacityError,
    CharacterTwist,
    CoprimeIndicator,
    Liouville,
    One,
    RandomRademacher,
    build_spec,
    character_by_index,
    delange_mean,
    distance,
    f_of_q_sum,
    make_spec,
    perturbation_constant,
    prime_unit_value,
)

# D(1, liouville; 10)^2 = 2 * (1/2 + 1/3 + 1/5 + 1/7)
DIST2_ONE_LIOUVILLE_10 = 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)


def test_distance_frozen():
    res = distance(make_spec(One()), make_spec(Liouville()), 10)
    assert res.primes_used == 4
    assert abs(res.value2 - DIST2_ONE_LIOUVILLE_10) < 1e-12
    assert res.value == math.sqrt(res.value2)
    # identical specs sit at distance zero
    same = distance(make_spec(One()), make_spec(One()), 10**4)
    assert same.value2 == 0.0


def test_distance_matches_brute(chi4, chi5):
    pairs = [
        (make_spec(CharacterTwist(chi4)), make_spec(One())),
        (make_spec(CharacterTwist(chi5, t=0.5)), make_spec(Liouville())),
        (make_spec(RandomRademacher(seed=3)), make_spec(One(), scale_r=0.25)),
    ]
    for f, g in pairs:
        for y, x in ((1, 300), (100, 1000)):
            res = distance(f, g, x, y=y)
            brute = 0.0
            count = 0
            for p in range(y + 1, x + 1):
                if oracles.trial_spf(p) != p:
                    continue
                count += 1
                fv = oracles.spec_value(f, p)
                gv = oracles.spec_value(g, p)
                brute += (1.0 - (fv * gv.conjugate()).real) / p
            assert res.primes_used == count, (y, x)
            assert abs(res.value2 - brute) < 1e-12, (y, x)


def test_distance_window_validation():
    f = make_spec(One())
    with pytest.raises(ValueError, match=r"\(10, 10\] needs 0 <= y < x") as refused:
        distance(f, f, 10, y=10)
    assert not isinstance(refused.value, CapacityError)  # an empty window, not a capacity
    with pytest.raises(CapacityError):
        distance(f, f, 10**8 + 1)


SPEC_POOL = [
    make_spec(One()),
    make_spec(Liouville()),
    make_spec(RandomRademacher(seed=1)),
    make_spec(RandomRademacher(seed=2)),
    make_spec(One(), exceptions={2: 0.5, 7: -1}),
    make_spec(CharacterTwist(character_by_index(4, 1))),
    make_spec(CharacterTwist(character_by_index(5, 1), t=0.7)),
    make_spec(CharacterTwist(character_by_index(5, 2)), exceptions={3: 1j}),
]


@settings(max_examples=80, deadline=None)
@given(
    i=st.integers(0, len(SPEC_POOL) - 1),
    j=st.integers(0, len(SPEC_POOL) - 1),
    k=st.integers(0, len(SPEC_POOL) - 1),
)
def test_distance_symmetry_and_triangle(i, j, k):
    f, g, h = SPEC_POOL[i], SPEC_POOL[j], SPEC_POOL[k]
    x = 500
    dfg = distance(f, g, x)
    dgf = distance(g, f, x)
    assert abs(dfg.value2 - dgf.value2) < 1e-12
    dfh = distance(f, h, x).value
    dgh = distance(g, h, x).value
    assert dfh <= dfg.value + dgh + 1e-9


def test_f_of_q_sum_single_term(chi5):
    g = make_spec(CharacterTwist(chi5), exceptions={2: -chi5(2)})
    # only p = 2 contributes: (g(2) conj(chi(2)) - 1)/2 = (-1 - 1)/2
    val = f_of_q_sum(g, chi5, 0.0, 5, 2)
    assert val == -1
    # matching function: every term vanishes
    chi_spec = make_spec(CharacterTwist(chi5))
    assert f_of_q_sum(chi_spec, chi5, 0.0, 5, 10**4) == 0
    with pytest.raises(ValueError):
        f_of_q_sum(g, chi5, 0.0, 7, 100)  # Q not a multiple of q


def test_f_of_q_sum_twist_cancels(chi4):
    f = make_spec(CharacterTwist(chi4, t=0.8))
    val = f_of_q_sum(f, chi4, 0.8, 4, 10**4)
    assert abs(val) < 1e-12


def test_delange_mean_perturbed_one():
    f = make_spec(One(), exceptions={2: 0.5})
    rep = delange_mean(f, 0.0, 10**5)
    want = oracles.ruzsa_density({2: Fraction(1, 2)})
    assert want == Fraction(2, 3)
    assert abs(rep.predicted - float(want)) < 1e-12
    assert rep.prefactor == 1
    assert rep.gap <= 4.0 / rep.x  # partial sums stay within 4 of (2/3) x
    assert not rep.squarefree_support


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_delange_mean_refuses_non_finite_t(t):
    """A NaN t used to give a NaN prediction and gap, an infinite one a
    "math domain error"."""
    with pytest.raises(ValueError, match="t must be finite"):
        delange_mean(make_spec(One()), t, 100)


def test_delange_mean_squarefree_one():
    rep = delange_mean(make_spec(One()), 0.0, 10**5, squarefree_support=True)
    density = 6 / math.pi**2
    assert abs(rep.predicted - density) < 1e-4
    assert abs(rep.empirical - density) < 1e-3
    assert rep.squarefree_support


def test_delange_mean_twisted(chi4):
    # f(n) = n^(it): the prediction x^(it)/(1+it) is asymptotically exact
    t = 1.0
    f = make_spec(CharacterTwist(character_by_index(1, 0), t=t))
    rep = delange_mean(f, t, 10**6)
    assert abs(rep.product - 1) < 1e-10  # phases cancel up to rounding
    assert abs(rep.prefactor) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert rep.gap < 5.0 / rep.x  # the O(1/x) constant here is about 2.2


def test_perturbation_constant_values():
    one = make_spec(One())
    halved = make_spec(One(), exceptions={2: 0.5})
    c = perturbation_constant(one, halved)
    assert abs(c - 2 / 3) < 1e-15
    # unaffected when both sides carry the same exception
    assert perturbation_constant(halved, halved) == 1
    # zeroing out the primes dividing 6 scales the density by 1/3
    coprime6 = make_spec(CoprimeIndicator(6))
    assert abs(perturbation_constant(one, coprime6) - Fraction(1, 3)) < 1e-15


def test_distance_to_coprime_indicator():
    """f(p) = 0 at the primes of Q = 30 and 1 elsewhere: only p = 2, 3, 5
    contribute (1 - 0) / p."""
    res = distance(build_spec("coprime:Q=30"), make_spec(One()), 1000)
    assert res.value2 == 1 / 2 + 1 / 3 + 1 / 5


def test_perturbation_constant_on_rademacher_and_damped_tails():
    rad = build_spec("rademacher:seed=3")
    assert prime_unit_value(rad, 5) == -1  # so 1 + (1/2 + 1) / (5 - 1/2) = 4/3
    halved = build_spec("rademacher:seed=3;except=5~0.5~0")
    assert perturbation_constant(rad, halved) == pytest.approx(4 / 3, rel=1e-15)
    # a damped tail: f(2) = 2^(-1/4) against g(2) = f(2)/2
    f = 2 ** -0.25
    g = f / 2
    damped = perturbation_constant(build_spec("one;scale_r=0.25"),
                                   build_spec("one;scale_r=0.25;except=2~0.5~0"))
    assert damped == pytest.approx(1 + (g - f) / (2 - g), rel=1e-15)
    with pytest.raises(ValueError, match="infinitely many primes"):
        perturbation_constant(build_spec("char:q=5,index=1,t=0.5"),
                              build_spec("char:q=5,index=1,t=0.7"))


def test_perturbation_constant_with_exceptions_past_int64():
    """Exception primes reach 2^64 - 59, the largest prime below 2^64: the
    values come from value_at_primes over a uint64 array, and the factor
    1 + (1/2 - f(p)) / (p - 1/2) rounds to 1 or next to it."""
    p = 2**64 - 59
    for base in ("one", "rademacher:seed=1", "char:q=5,index=1,t=0.5;scale_r=0.25"):
        c = perturbation_constant(build_spec(base), build_spec(f"{base};except={p}~0.5~0"))
        assert abs(c - 1) < 1e-18, base
    assert perturbation_constant(make_spec(One()),
                                 build_spec(f"one;except={p}~0.5~0")) == 1


def test_perturbation_constant_validation():
    one = make_spec(One())
    with pytest.raises(ValueError):
        perturbation_constant(one, make_spec(Liouville()))  # infinite difference
    with pytest.raises(ValueError):
        perturbation_constant(one, make_spec(One(), scale_r=0.5))
    with pytest.raises(ValueError):
        perturbation_constant(one, make_spec(One(), exceptions={2: 1j}))  # |w| = 1
    from multsum import primes_upto

    many = {int(p): 0.5 for p in primes_upto(400)[:65]}
    with pytest.raises(CapacityError):
        perturbation_constant(one, make_spec(One(), exceptions=many))


def test_perturbation_constant_with_large_prime_q():
    """coprime:Q with Q = 2^61 - 1 used to be trial-divided to sqrt(Q) and
    ran for minutes."""
    script = (
        "from multsum import build_spec, perturbation_constant\n"
        "s = build_spec('coprime:Q=2305843009213693951')\n"
        "assert perturbation_constant(s, s) == 1\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
    )
    assert r.returncode == 0, r.stderr


def test_perturbation_constant_matches_measured_density():
    """The predicted constant matches the measured mean-value ratio."""
    f = make_spec(One())
    g = make_spec(One(), exceptions={3: -0.5, 5: 0.25})
    c = perturbation_constant(f, g)
    rep = delange_mean(g, 0.0, 10**6)
    assert abs(rep.empirical - c) < 5e-5, (rep.empirical, c)
    exact = oracles.ruzsa_density({3: Fraction(-1, 2), 5: Fraction(1, 4)})
    assert exact == Fraction(64, 133)
    assert abs(c - float(exact)) < 1e-14
