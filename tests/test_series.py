"""Tests for series: zeta and L values, partial sums, product residuals."""

import cmath
import math

import numpy as np
import pytest
from mpmath import mp

import oracles
from multsum import (
    CharacterTwist,
    Liouville,
    One,
    character_by_index,
    dirichlet_partial,
    finite_product_P,
    l_chi,
    make_spec,
    residual_check,
    series,
    zeta,
)

CATALAN = 0.915965594177219015


def test_zeta_closed_forms():
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-13
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-13
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5 + 3j)


def test_zeta_matches_mpmath():
    for s in (1.1, 1.5, 3.0, 2 + 3j, 1.01 - 10j, 7.5):
        want = oracles.mp_zeta(s)
        assert abs(zeta(s) - want) < 1e-12 * abs(want), s


def test_zeta_doubles_its_cutoff(monkeypatch):
    """At 1.5 + 30i the first cutoff M = 31 leaves a correction term above
    the tolerance, so the cutoff doubles; the value still matches mpmath."""
    cutoffs = []
    em_correction = series._em_correction

    def recorded(s, M):
        cutoffs.append(M)
        return em_correction(s, M)

    monkeypatch.setattr(series, "_em_correction", recorded)
    want = oracles.mp_zeta(1.5 + 30j)
    assert abs(zeta(1.5 + 30j) - want) <= 1e-15 * abs(want)
    assert cutoffs[:2] == [31.0, 62.0]


def test_l_chi_closed_forms(chi4, chi5):
    assert abs(l_chi(1, chi4) - math.pi / 4) < 1e-14
    assert abs(l_chi(2, chi4) - CATALAN) < 1e-13
    golden = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(l_chi(1, chi5) - golden) < 1e-13


def test_l_chi_matches_hurwitz(chi4, chi5):
    chis = [chi4, chi5, character_by_index(5, 1), character_by_index(3, 1)]
    points = [0.25, 0.8, 1.3, 2.0, 0.5 + 2j, 1.5 - 1j, 3 + 0.25j]
    for chi in chis:
        for s in points:
            want = oracles.hurwitz_l(s, chi)
            got = l_chi(s, chi)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want)), (chi.modulus, s)


@pytest.mark.parametrize("s, cutoffs", [(0.2 + 20j, [21, 42]), (0.5 + 100j, [101, 202])])
def test_l_chi_doubles_its_cutoff(monkeypatch, s, cutoffs):
    """Once |Im s| reaches about 20 the first cutoff K = |Im s| + 1 leaves a
    correction term above the tolerance, so K doubles; the value still
    matches mpmath's L(s, chi) within 1e-10."""
    chi = character_by_index(4, 1)
    seen = []
    em_correction = series._em_correction

    def recorded(s, M):
        seen.append(int(M))  # M = K + a/q
        return em_correction(s, M)

    monkeypatch.setattr(series, "_em_correction", recorded)
    with mp.workdps(30):
        want = complex(mp.dirichlet(mp.mpc(s), [complex(chi(a)) for a in range(4)]))
    assert abs(l_chi(s, chi) - want) <= 1e-10
    assert seen == [k for k in cutoffs for _ in range(2)]  # residues 1 and 3


def test_l_chi_stable_across_one(chi4):
    """The pole parts cancel for non-principal chi; values vary smoothly."""
    center = l_chi(1.0, chi4)
    for eps in (1e-6, 1e-9, 1e-12):
        for s in (1 + eps, 1 - eps, 1 + 1j * eps):
            assert abs(l_chi(s, chi4) - center) < 1e-5, s
    # and the s = 1 value agrees with a just-off-axis Hurwitz evaluation
    assert abs(center - oracles.hurwitz_l(1 + 1e-9, chi4)) < 1e-8


def test_l_chi_conjugation_symmetry():
    chi = character_by_index(5, 1)
    chi_bar = character_by_index(5, 3)
    assert np.allclose(np.conj(chi.values), chi_bar.values)
    for s in (0.7 + 2j, 1.5 - 0.5j, 2.0):
        a = l_chi(s, chi)
        b = l_chi(complex(s).conjugate(), chi_bar)
        assert abs(a - b.conjugate()) < 1e-12, s


def test_l_chi_principal_reduces_to_zeta():
    chi0 = character_by_index(6, 0)
    for s in (1.5, 2.0, 2 + 1j):
        want = zeta(s) * (1 - 2.0 ** -complex(s)) * (1 - 3.0 ** -complex(s))
        assert abs(l_chi(s, chi0) - want) < 1e-12, s
    with pytest.raises(ValueError):
        l_chi(0.9, chi0)


def test_l_chi_domain(chi4):
    with pytest.raises(ValueError):
        l_chi(0.0, chi4)
    with pytest.raises(ValueError):
        l_chi(-1.0, chi4)


def test_l_chi_matches_averaged_partial_sums(chi4, chi5):
    """Two very different schemes: Euler-Maclaurin per residue class versus
    period-averaged raw partial sums."""
    for chi in (chi4, chi5):
        for s in (0.7, 1.0, 1.25, 2.0, 0.8 + 1j):
            want = oracles.averaged_l(s, chi)
            assert abs(l_chi(s, chi) - want) < 1e-8, (chi.modulus, s)


def test_dirichlet_partial_matches_brute(chi5):
    specs = [
        make_spec(One()),
        make_spec(CharacterTwist(chi5), exceptions={2: 1}),
    ]
    N = 400
    for spec in specs:
        for s in (0.5, 2.0, 1 + 1j):
            brute = sum(
                oracles.spec_value(spec, n) * n ** -complex(s)
                for n in range(1, N + 1)
            )
            got = dirichlet_partial(spec, s, N)
            assert abs(got - brute) < 1e-12, (s,)
            brute_sf = sum(
                oracles.spec_value(spec, n) * n ** -complex(s)
                for n in range(1, N + 1)
                if oracles.naive_squarefree(n)
            )
            got_sf = dirichlet_partial(spec, s, N, squarefree_support=True)
            assert abs(got_sf - brute_sf) < 1e-12, (s,)
    with pytest.raises(ValueError):
        dirichlet_partial(specs[0], 0.0, 100)


def test_liouville_series_value():
    # sum lambda(n) n^(-2) = zeta(4)/zeta(2) = pi^2/15
    partial = dirichlet_partial(make_spec(Liouville()), 2.0, 10**6)
    assert abs(partial - math.pi**2 / 15) < 1e-8


def test_finite_product_hand_value(chi4):
    # g = chi mod 4 with g(3) flipped to +1: the p = 2 factor is
    # 1/(1 - 2^(-2s)) and the p = 3 factor collapses to
    # (1 + 3^(-s))/(1 - 3^(-s)); at s = 2 the product is (16/15)(5/4) = 4/3
    g = make_spec(CharacterTwist(chi4), exceptions={3: 1})
    assert abs(finite_product_P(g, chi4, 2.0) - 4 / 3) < 1e-15
    s = 1.5 + 0.5j
    two = 1 / (1 - cmath.exp(-2 * s * math.log(2)))
    three = (1 + cmath.exp(-s * math.log(3))) / (1 - cmath.exp(-s * math.log(3)))
    assert abs(finite_product_P(g, chi4, s) - two * three) < 1e-14


def test_residual_check_decays(chi5):
    g = make_spec(CharacterTwist(chi5), exceptions={2: -chi5(2)})
    checks = [residual_check(g, chi5, 2.0, N) for N in (10**5, 2 * 10**5, 4 * 10**5)]
    for ck in checks:
        assert ck.residual <= 1e-4, ck.N
        assert ck.expected_scale == 1.0 / ck.N
    for a, b in zip(checks, checks[1:]):
        assert b.residual <= 2.0 * a.residual, (a.N, a.residual, b.residual)
    assert checks[-1].residual < checks[0].residual


def test_residual_check_validation(chi4, chi5):
    g = make_spec(CharacterTwist(chi5), exceptions={2: 1})
    with pytest.raises(ValueError):
        residual_check(g, chi5, 1.0, 1000)  # needs Re(s) > 1
    with pytest.raises(ValueError):
        residual_check(g, chi4, 2.0, 1000)  # base character mismatch
    with pytest.raises(ValueError):
        residual_check(make_spec(One()), chi5, 2.0, 1000)  # not a character base
    twisted = make_spec(CharacterTwist(chi5, t=1.0))
    with pytest.raises(ValueError):
        residual_check(twisted, chi5, 2.0, 1000)
    complex_exc = make_spec(CharacterTwist(chi5), exceptions={2: 1j})
    with pytest.raises(ValueError):
        residual_check(complex_exc, chi5, 2.0, 1000)
    complex_chi = character_by_index(5, 1)
    with pytest.raises(ValueError):
        residual_check(make_spec(CharacterTwist(complex_chi)), complex_chi, 2.0, 1000)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(2, math.nan),
                               complex(2, math.inf)])
def test_non_finite_s_refused(chi4, s):
    """zeta, l_chi and dirichlet_partial refuse an s with a part that is not
    finite, naming s, where zeta(nan) used to return NaN."""
    for call in (lambda: zeta(s), lambda: l_chi(s, chi4),
                 lambda: l_chi(s, character_by_index(4, 0)),
                 lambda: dirichlet_partial(make_spec(One()), s, 100)):
        with pytest.raises(ValueError, match="a finite s with Re"):
            call()
