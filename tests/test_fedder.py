import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frsurf import fedder, padic
from frsurf.fedder import (
    CASE_D1,
    CASE_D2,
    REFERENCE_WITNESSES,
    P1Pair,
    fedder_exponents,
    hara_table,
    is_globally_F_regular,
    verify_witness,
)
from frsurf.padic import binom_mod_p, exists_dominated_in_interval
from test_padic import _divmod_digits, _lucas_reference


def test_pair_validation():
    with pytest.raises(ValueError):
        P1Pair.from_coeffs([F(1, 2), F(1)])  # coefficient 1 not allowed
    with pytest.raises(ValueError):
        P1Pair.from_coeffs([F(1, 2)] * 4)  # four marked points unsupported
    pair = P1Pair.from_coeffs([F(1, 2)])
    assert pair.coeffs == (F(1, 2), F(0), F(0))


def test_exponents_examples():
    assert fedder_exponents(CASE_D1, 7, 2) == (20, 32, 40)
    assert fedder_exponents(CASE_D2, 7, 2) == (16, 36, 36)
    zero = P1Pair.from_coeffs([])
    assert fedder_exponents(zero, 13, 3) == (0, 0, 0)


def test_verify_witness_reference_rows():
    assert verify_witness((20, 32, 40), 46, 46, 7, 2)
    assert verify_witness((48, 80, 100), 115, 113, 11, 2)
    # same exponents, shifted monomial: C(40, 27) = 0 mod 7 (digits (6,3) vs (5,5))
    assert not verify_witness((20, 32, 40), 47, 45, 7, 2)
    assert binom_mod_p(40, 27, 7) == 0
    # wrong total degree
    assert not verify_witness((20, 32, 40), 46, 45, 7, 2)
    # monomial outside the p^e - 2 box
    assert not verify_witness((20, 32, 40), 48, 44, 7, 2)


def test_frobenius_exponent_must_be_a_positive_int():
    pair = P1Pair.from_coeffs([F(1, 2), F(2, 3), F(3, 4)])
    for e in (1.5, 2.0, True, 0, -1, "2"):
        with pytest.raises(ValueError):
            verify_witness((0, 0, 0), 0, 0, 7, e)
        with pytest.raises(ValueError):
            fedder_exponents(pair, 7, e)
        with pytest.raises(ValueError):
            fedder.test_at(pair, 7, e)


def test_one_power_per_certificate_check(monkeypatch):
    # fedder_exponents, test_at and verify_witness at one (p, e) all read p^e
    # from padic's power memo, so p^4000 is built once.  A counting stand-in
    # with the same lru_cache replaces _power wherever it is bound; it builds
    # through the real body, whose recursion asks the stand-in too.
    asked, built = Counter(), Counter()
    body = padic._power.__wrapped__

    def build(p, k):
        built[p, k] += 1
        return body(p, k)

    cached = functools.lru_cache(maxsize=64)(build)

    def counting(p, k):
        asked[p, k] += 1
        return cached(p, k)

    for module in (padic, fedder):
        monkeypatch.setattr(module, "_power", counting)
    pair = P1Pair.from_coeffs([F(1, 2), F(2, 3), F(3, 4)])
    a = fedder_exponents(pair, 7, 4000)
    cert = fedder.test_at(pair, 7, 4000)
    assert cert.a == a and verify_witness(cert.a, *cert.witness, 7, 4000)
    # fedder_exponents asks twice (once inside test_at), test_at and
    # verify_witness once each; square-and-multiply keeps one key per level.
    assert asked[7, 4000] == 4 and built[7, 4000] == 1
    assert sorted(k for q, k in built if q == 7) == [7, 15, 31, 62, 125, 250, 500, 1000, 2000, 4000]


def test_verify_witness_matches_big_binomial():
    # The gcd with p^e strips the low zero digits of i - a1 before Lucas.
    rng = random.Random(20261020)
    for p, e in ((2, 9), (3, 6), (7, 3), (101, 2)):
        cap = p**e - 2
        for _ in range(300):
            a1, a2 = rng.randint(0, cap), rng.randint(0, cap)
            a3 = rng.randint(0, cap)
            k = rng.choice([0, rng.randint(0, a3), a3, p ** rng.randint(0, e - 1)])
            i, j = a1 + k, a2 + a3 - k
            expected = i <= cap and 0 <= j <= cap and k <= a3 and math.comb(a3, k) % p != 0
            assert verify_witness((a1, a2, a3), i, j, p, e) == expected, (p, e, a1, a2, a3, k)


def test_verify_witness_decides_dominance_on_slow_witnesses():
    # Slow witnesses (p does not divide k) make verify_witness extract the
    # digits of a3 and k in full; Lucas' zero test alone must decide them.
    values = [F(1, 2), F(2, 3), F(3, 4), F(4, 5)]
    triples = [t for t in itertools.product(values, repeat=3) if sum(t) < 2 and t[1] + t[2] > 1]
    for p, e in ((11, 5000), (101, 4999)):
        slow = 0
        for t in triples:
            cert = fedder.test_at(P1Pair.from_coeffs(t), p, e)
            if cert is None or (cert.witness[0] - cert.a[0]) % p == 0:
                continue
            slow += 1
            (a1, a2, a3), (i, j) = cert.a, cert.witness
            k = i - a1
            expected = _lucas_reference(a3, k, p) != 0  # the gcd g is 1: p does not divide k
            assert expected and verify_witness(cert.a, i, j, p, e) == expected
            # Tamper one digit: set k's digit t to a3's plus one (k + p^t where
            # they are equal), so C(a3, k) vanishes; the degree sum holds.
            digits_k, digits_a3 = _divmod_digits(k, p, e), _divmod_digits(a3, p, e)
            t = next(t for t in range(e // 2, e) if digits_a3[t] < p - 1)
            bump = (digits_a3[t] + 1 - digits_k[t]) * p**t
            assert k + bump <= a3 and i + bump <= p**e - 2
            assert _lucas_reference(a3, k + bump, p) == 0
            assert not verify_witness(cert.a, i + bump, j - bump, p, e), (t, p, e)
        assert slow >= 4, (p, e)


def test_test_at_returns_canonical_witness():
    cert = fedder.test_at(CASE_D1, 7, 2)
    assert cert is not None
    assert cert.a == (20, 32, 40)
    # least dominated k in [25, 27] is 25, giving x^45 y^47
    assert cert.witness == (45, 47)
    assert verify_witness(cert.a, *cert.witness, 7, 2)


def test_test_at_shortcut_prime():
    cert = fedder.test_at(CASE_D1, 37, 1)
    assert cert is not None
    assert verify_witness(cert.a, *cert.witness, 37, 1)


def test_test_at_zero_boundary():
    cert = fedder.test_at(P1Pair.from_coeffs([]), 7, 1)
    assert cert is not None
    assert cert.witness == (0, 0)


def _digit_search_witness(pair, p, e):
    """The oracle for `test_at`: the least dominated k found from the
    extracted digits of a3 and lo by `exists_dominated_in_interval`."""
    a1, a2, a3 = fedder_exponents(pair, p, e)
    cap = p**e - 2
    k = exists_dominated_in_interval(a3, a2 + a3 - cap, min(a3, cap - a1), p, e)
    return None if k is None else (a1 + k, a2 + a3 - k)


def _witness(pair, p, e):
    cert = fedder.test_at(pair, p, e)
    return None if cert is None else cert.witness


def test_test_at_matches_digit_search_on_grid():
    values = sorted({F(m, n) for n in range(1, 10) for m in range(n)})
    triples = [t for t in itertools.combinations_with_replacement(values, 3) if sum(t) < 2]
    for p in (7, 11, 13):
        for t in triples:
            pair = P1Pair.from_coeffs(t)
            for e in (1, 2, 3, 12):
                assert _witness(pair, p, e) == _digit_search_witness(pair, p, e), (t, p, e)


def test_test_at_matches_digit_search_at_large_e():
    rng = random.Random(20261019)
    values = [F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(5, 6), F(2, 5), F(1, 3), F(6, 7), F(7, 11)]
    triples = [t for t in itertools.product(values, repeat=3) if sum(t) < 2]
    for p in (7, 11, 13, 101):
        for _ in range(6):
            pair = P1Pair.from_coeffs(rng.choice(triples))
            e = rng.randint(1, 2 * 10**4)
            assert _witness(pair, p, e) == _digit_search_witness(pair, p, e), (pair, p, e)


def test_test_at_matches_digit_search_on_reference_cases():
    for case, p in REFERENCE_WITNESSES:
        pair = {"D1": CASE_D1, "D2": CASE_D2}[case]
        witness = _witness(pair, p, 2)
        assert witness is not None and witness == _digit_search_witness(pair, p, 2), (case, p)


def test_verdict_degree_precheck():
    pair = P1Pair.from_coeffs([F(1, 2), F(2, 3), F(5, 6)])
    for p in (7, 11, 97):
        verdict = is_globally_F_regular(pair, p, e_max=4)
        assert verdict.status == "not_regular"
        assert "degree" in verdict.reason


def test_verdict_toric():
    verdict = is_globally_F_regular(P1Pair.from_coeffs([F(1, 2)]), 7, 4)
    assert verdict.is_regular and verdict.toric


def test_verdict_regular_with_certificate():
    verdict = is_globally_F_regular(CASE_D1, 7, e_max=2)
    assert verdict.is_regular
    cert = verdict.certificate
    assert cert.e <= 2
    assert verify_witness(cert.a, *cert.witness, 7, cert.e)


def test_monotone_e_coherence():
    for e_max in (2, 3, 6):
        assert is_globally_F_regular(CASE_D1, 7, e_max).is_regular


def test_verdict_rejects_e_max_below_one():
    # an e_max that is no int (a bool, a float, a string) is rejected too
    for pair in (CASE_D1, P1Pair.from_coeffs([F(1, 2)])):
        for e_max in (0, -2, True, 2.5, "2"):
            with pytest.raises(ValueError):
                is_globally_F_regular(pair, 7, e_max)


def test_inconclusive_is_not_negative():
    # e_max = 1 is too small for this boundary at p = 7
    assert fedder.test_at(CASE_D1, 7, 1) is None
    verdict = is_globally_F_regular(CASE_D1, 7, e_max=1)
    assert verdict.status == "inconclusive"
    assert verdict.e_tried == 1


@given(
    nums=st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
    p=st.sampled_from([7, 11, 13]),
)
def test_certificate_soundness(nums, p):
    coeffs = [F(n, 12) for n in nums]
    pair = P1Pair.from_coeffs(coeffs)
    verdict = is_globally_F_regular(pair, p, e_max=4)
    if verdict.certificate is not None:
        cert = verdict.certificate
        assert verify_witness(cert.a, *cert.witness, cert.p, cert.e)
        assert cert.a == fedder_exponents(pair, cert.p, cert.e)
    if verdict.status == "not_regular":
        assert pair.degree >= 2


def test_hara_table_defaults():
    rows = hara_table()
    assert len(rows) == 9
    assert all(r.reference_ok for r in rows)
    assert all(r.witness is not None for r in rows)
    by_key = {(r.case, r.p): r for r in rows}
    assert by_key[("D1", 13)].a == (68, 112, 140)
    assert by_key[("D1", 29)].a == (336, 560, 700)
    assert by_key[("D2", 11)].a == (40, 90, 90)
    assert set(REFERENCE_WITNESSES) == {(r.case, r.p) for r in rows}


def test_hara_table_out_of_range_prime_computes_both_cases():
    rows = hara_table([37])
    assert [r.case for r in rows] == ["D1", "D2"]
    assert all(r.reference_witness is None for r in rows)

    with pytest.raises(ValueError):
        hara_table([5])
    with pytest.raises(ValueError):
        hara_table([9])
