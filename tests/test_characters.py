"""Tests for characters: tables, modified sums, witnesses, window checks."""

import cmath
import hashlib
import math

import numpy as np
import pytest

import oracles
from multsum import arith
from multsum import (
    CapacityError,
    CharacterTwist,
    Liouville,
    One,
    build_spec,
    character_by_index,
    character_table,
    deviation_primes,
    eval_range,
    euler_phi,
    first_nonzero_sigma,
    growth_witness,
    iterate_check,
    make_spec,
    modified_spec,
    recursion_state,
    s_restricted,
    sigma_many,
    sigma_recursion,
)

# (q, index, conductor, real) facts small enough to check by hand
CONDUCTOR_TABLE = [
    (1, 0, 1, True),
    (3, 1, 3, True),
    (4, 1, 4, True),
    (5, 1, 5, False),
    (5, 2, 5, True),
    (8, 2, 4, True),   # induced from the level-4 character
    (9, 3, 3, True),   # induced from the level-3 character
    (12, 1, 3, True),
    (12, 2, 4, True),
    (12, 3, 12, True),
]


def test_table_orthogonality():
    for q in (3, 4, 5, 8, 9, 12, 16, 21, 40):
        tab = character_table(q)
        phi = euler_phi(q)
        assert len(tab) == phi, q
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        # row orthogonality: sum_a chi(a) conj(psi(a)) = phi [chi == psi]
        for i, chi in enumerate(tab):
            for j, psi in enumerate(tab):
                s = sum(chi(a) * psi(a).conjugate() for a in units)
                want = phi if i == j else 0.0
                assert abs(s - want) < 1e-10, (q, i, j, s)
        # column orthogonality: sum_chi chi(a) conj(chi(b)) = phi [a == b]
        for a in units:
            for b in units:
                s = sum(chi(a) * chi(b).conjugate() for chi in tab)
                want = phi if a == b else 0.0
                assert abs(s - want) < 1e-10, (q, a, b, s)


def test_character_values_periodic_multiplicative():
    for q in (4, 5, 9, 12):
        for chi in character_table(q):
            for a in range(q):
                if math.gcd(a, q) != 1:
                    assert chi(a) == 0, (q, chi.index, a)
                assert chi(a + q) == chi(a)
                for b in range(q):
                    assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12
            assert chi(1) == 1


def test_conductor_and_real_flags():
    for q, index, conductor, real in CONDUCTOR_TABLE:
        chi = character_by_index(q, index)
        got = (chi.conductor, chi.real, chi.principal)
        assert got == (conductor, real, index == 0), (q, index, got)


def test_character_by_index_lookup():
    assert character_by_index(4, "real").index == 1
    assert character_by_index(5, "real").index == 2
    assert character_by_index(3, "real").index == 1
    with pytest.raises(ValueError):
        character_by_index(8, "real")  # three real non-principal characters
    with pytest.raises(ValueError):
        character_by_index(1, "real")  # none at all
    with pytest.raises(ValueError):
        character_by_index(5, 4)
    with pytest.raises(ValueError):
        character_by_index(5, -1)
    with pytest.raises(CapacityError):
        character_by_index(10**9, 0)
    # table order and single lookups agree
    tab = character_table(9)
    for i, chi in enumerate(tab):
        assert np.allclose(character_by_index(9, i).values, chi.values)


# sha256 over values bytes, exponents and conductor of every character in
# character_table(q) for q < 200, then character_by_index(999983, 5) and
# character_by_index(100003, "real"); recorded before unit_group moved onto
# arith.factor, so generator order and every character index are pinned
CHARACTER_TABLES_SHA256 = "8916196437184a1e17e40689b4d8b258648f7e58bce5600717395a3921cf5c91"


def test_numpy_roots_match_math_roots():
    """Characters tabulate their roots of unity with one np.cos and np.sin
    over the angles 2.0 * math.pi * k / lcm; the pins above were recorded
    with math.cos and math.sin of the same angles, one value at a time.
    The two agree bit for bit over every angle of every q < 200 and of
    q = 999983 (lcm the exponent of the unit group mod q)."""
    orders = {math.lcm(*arith.unit_group(q).orders) for q in [*range(1, 200), 999983]}
    for lcm in sorted(orders):
        angle = 2.0 * math.pi * np.arange(lcm) / lcm
        got = np.cos(angle), np.sin(angle)
        for fn, vals in zip((math.cos, math.sin), got):
            want = np.array([fn(2.0 * math.pi * k / lcm) for k in range(lcm)])
            assert vals.view(np.uint64).tolist() == want.view(np.uint64).tolist(), lcm


def test_character_tables_pinned():
    h = hashlib.sha256()
    chars = [chi for q in range(1, 200) for chi in character_table(q)]
    chars += [character_by_index(999983, 5), character_by_index(100003, "real")]
    for chi in chars:
        h.update(chi.values.tobytes())
        h.update(repr(chi.exponents).encode())
        h.update(repr(chi.conductor).encode())
    assert h.hexdigest() == CHARACTER_TABLES_SHA256


def test_modified_spec_values(chi4):
    spec = modified_spec(chi4, 3, 1j)
    rng = eval_range(spec, 400)
    for n in range(1, 401):
        want = oracles.modified_value(chi4, 3, 1j, n)
        assert abs(complex(rng.values[n]) - want) < 1e-12, n


def test_modification_validation(chi4, chi5):
    with pytest.raises(ValueError):
        modified_spec(chi4, 4, 1)  # r not prime
    with pytest.raises(ValueError):
        modified_spec(chi4, 2, 1)  # r divides q
    with pytest.raises(ValueError):
        modified_spec(chi4, 3, 2.0)  # z off the unit circle
    with pytest.raises(ValueError):
        recursion_state(chi5, 5, 1)


def test_deviation_primes_and_variant_check(chi4, chi5):
    # g(5) = 1 != chi5(5) = 0, g(7) = 1 != -1, g(11) = -1 != 1; g(2) = chi5(2)
    g = make_spec(CharacterTwist(chi5), exceptions={2: -1, 5: 1, 7: 1, 11: -1})
    assert deviation_primes(g, chi5) == {5, 7, 11}
    assert deviation_primes(make_spec(CharacterTwist(chi4)), chi4) == set()
    assert deviation_primes(g, character_by_index(5, "real")) == {5, 7, 11}  # equal tables
    for bad, chi in (
        (make_spec(One()), chi5),
        (make_spec(Liouville()), chi5),
        (make_spec(CharacterTwist(chi5, t=1.0)), chi5),
        (make_spec(CharacterTwist(chi5), scale_r=0.5), chi5),
        (g, chi4),
        (g, character_by_index(5, 1)),
        (build_spec("char:q=5,index=1,t=0.5"), character_by_index(5, 1)),
    ):
        with pytest.raises(ValueError, match="character variant"):
            deviation_primes(bad, chi)


def test_recursion_refuses_principal_character():
    """S(r*q) != 0 for the principal character, so the recursion identities
    fail: iterate_check(state, 28, 20, 20) used to return a residual of
    2.44e10 here instead of an error."""
    chi0 = character_by_index(4, 0)
    assert chi0.principal
    with pytest.raises(ValueError, match="non-principal"):
        recursion_state(chi0, 3, -1)


@pytest.mark.parametrize("q, index, r, z", [(4, 1, 3, -1), (5, 1, 7, 1j), (39, 23, 11, -1)])
def test_recursion_table_is_the_indexed_recipe(q, index, r, z):
    """The period table laid by arith.periodic and summed in place has the
    bytes of the earlier recipe: an index array into the values, then a
    cumsum into a second array."""
    chi = character_by_index(q, index)
    vals = chi.values[np.arange(r * q + 1) % q].copy()
    vals[0] = 0
    vals[r::r] = 0
    assert recursion_state(chi, r, z).s_table.tobytes() == np.cumsum(vals).tobytes()


def test_s_restricted_values(chi4):
    st = recursion_state(chi4, 3, 1)
    assert s_restricted(st, 10) == 1  # frozen: chi4 over n <= 10 coprime to 3
    for x in (0, 1, 5, 11, 12, 13, 100, 1234):
        brute = sum(chi4(n) for n in range(1, x + 1) if n % 3 != 0)
        assert s_restricted(st, x) == brute, x
    with pytest.raises(ValueError):
        s_restricted(st, -1)


def test_s_restricted_is_periodic():
    """S(k*rq + j) = S(j) exactly: the period sum of a non-principal
    character is 0, and its float value (rounding noise for characters of
    order above 4) must not leak into large arguments."""
    st = recursion_state(character_by_index(39, 23), 11, -1)
    for k in (1, 7, 10**6, 10**12 // st.period, 10**15):
        for j in (0, 1, 17, st.period - 1):
            assert s_restricted(st, k * st.period + j) == s_restricted(st, j), (k, j)
    x = 10**12
    assert complex(sigma_many(st, np.array([x]))[0]) == sigma_recursion(st, x)


def test_sigma_recursion_frozen(chi4, chi5):
    assert sigma_recursion(recursion_state(chi4, 3, 1), 10) == 3
    assert sigma_recursion(recursion_state(chi4, 3, 1j), 10) == 1j
    assert sigma_recursion(recursion_state(chi5, 7, -1), 100) == 0


def test_sigma_recursion_matches_direct(chi4, chi5):
    combos = [
        (chi4, 3, 1),
        (chi4, 3, 1j),
        (chi4, 7, -1),
        (chi5, 3, -1j),
        (chi5, 7, 1),
        (character_by_index(5, 1), 3, 1j),
    ]
    for chi, r, z in combos:
        st = recursion_state(chi, r, z)
        for x in (0, 1, 2, 7, 50, 333, 500):
            want = oracles.direct_modified_sum(chi, r, z, x)
            got = sigma_recursion(st, x)
            assert abs(got - want) < 1e-12, (chi.modulus, r, z, x, got, want)


def test_sigma_many_matches_scalar(chi4):
    st = recursion_state(chi4, 3, 1j)
    xs = np.array([0, 1, 2, 3, 9, 10, 81, 1000, 10**6], dtype=np.int64)
    vec = sigma_many(st, xs)
    for x, v in zip(xs, vec):
        assert complex(v) == sigma_recursion(st, int(x)), int(x)


def test_sigma_many_refuses_negative_arguments(chi4):
    """A negative entry used to take table terms for as long as the largest
    entry ran, so its value depended on the other entries (1 at -2 here)."""
    st = recursion_state(chi4, 3, 1j)
    with pytest.raises(ValueError, match="x must be >= 0, got -2"):
        sigma_many(st, [-2, 10])
    with pytest.raises(ValueError, match="got -1"):
        sigma_many(st, np.array([[5, 0], [-1, -7]]))


def test_iterate_check_exact_zero(chi4, chi5):
    rng = np.random.default_rng(20260818)
    for chi in (chi4, chi5):
        q = chi.modulus
        for r in (3, 7):
            if q % r == 0:
                continue
            for z in (1, -1, 1j):
                st = recursion_state(chi, r, z)
                for _ in range(40):
                    K = int(rng.integers(1, 6))
                    x = q * int(rng.integers(1, 50))
                    y_cap = max((r**K - 1) // q, 1)
                    y = q * int(rng.integers(0, min(y_cap, 50)))
                    if y >= r**K:
                        continue
                    assert iterate_check(st, x, y, K) == 0, (q, r, z, x, y, K)


def test_iterate_check_validation(chi4):
    st = recursion_state(chi4, 3, 1)
    with pytest.raises(ValueError):
        iterate_check(st, 4, 0, 0)  # K too small
    with pytest.raises(ValueError):
        iterate_check(st, 5, 0, 2)  # x not a multiple of q
    with pytest.raises(ValueError):
        iterate_check(st, 4, 6, 2)  # y not a multiple of q
    with pytest.raises(ValueError):
        iterate_check(st, 4, 12, 2)  # y >= r^K


def test_growth_witness_frozen(chi4):
    st = recursion_state(chi4, 3, 1)
    w = growth_witness(st, 1 << 24, density=2.0)
    assert w.regime == "witness"
    assert (w.A, w.K, w.seed_sigma) == (4, 2, 2)
    assert w.m_list == (1, 2, 3, 4, 5, 6)
    assert w.n == 2391484
    assert w.measured == w.predicted == 14
    assert w.exact_match and w.bound_ok
    assert w.lower_bound == pytest.approx(0.99 * 7 * 2)
    # the default density is conservative: no copies fit below 2^24
    w0 = growth_witness(st, 1 << 24)
    assert (w0.m_list, w0.n, w0.measured) == ((), 4, 2)
    assert w0.bound_ok and w0.exact_match


def test_growth_witness_within_tolerance(chi4):
    """A modification by a cube root of unity is not exact: the witness keeps
    the copies whose phase z^(K m) is 1 and matches its prediction within
    the float tolerance.  X < 1 and a negative Sigma argument are refused."""
    st = recursion_state(chi4, 3, cmath.exp(2j * math.pi / 3))
    assert not st.exact
    w = growth_witness(st, 1 << 24, density=2.0)
    assert w.regime == "witness" and (w.A, w.K, w.m_list) == (4, 2, (3, 6))
    assert abs(w.measured - w.predicted) <= 1e-9 and w.exact_match and w.bound_ok
    with pytest.raises(ValueError, match="X must be >= 1"):
        growth_witness(st, 0)
    with pytest.raises(ValueError, match="x must be >= 0"):
        sigma_recursion(st, -1)


def test_growth_witness_zero_sum_regime(chi4):
    st = recursion_state(chi4, 3, chi4(3))
    assert st.degenerate
    w = growth_witness(st, 10**6, a_max=400)
    assert w.regime == "zero-sum"
    assert w.n is None


def test_first_nonzero_sigma(chi4):
    st = recursion_state(chi4, 3, 1)
    assert first_nonzero_sigma(st, 100) == 1
    degenerate = recursion_state(chi4, 3, chi4(3))
    assert first_nonzero_sigma(degenerate, 200) is None
    with pytest.raises(ValueError):
        first_nonzero_sigma(st, 0)
