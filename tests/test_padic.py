import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frsurf import padic
from frsurf.padic import (
    _DIV_LIMIT,
    _chunk_tables,
    _div2n1n,
    binom_mod_p,
    ceil_mul,
    digits_fixed,
    exists_dominated_in_interval,
    expansion_digits,
    is_prime,
)


def brute_least_dominated(a, lo, hi, p, e):
    lo = max(lo, 0)
    hi = min(hi, p**e - 1)
    for k in range(lo, hi + 1):
        if binom_mod_p(a, k, p) != 0:
            return k
    return None


def _lucas_reference(n, k, p):
    """C(n, k) mod p by Lucas' theorem, one bigint divmod per digit (O(e^2))."""
    if k > n:
        return 0
    acc = 1
    while k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        acc = acc * (math.comb(nd, kd) % p) % p
    return acc


def _from_digits(digits, p):
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def _divmod_digits(n, p, e):
    out = []
    for _ in range(e):
        n, d = divmod(n, p)
        out.append(d)
    return out


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-2, 42):
        assert is_prime(n) == (n in primes)
    assert is_prime(1009)
    assert not is_prime(1007)  # 19 * 53
    # the least strong pseudoprimes to the bases 2 to 37 and 2 to 41
    assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441
    assert not is_prime(3317044064679887385961981)  # 1287836182261 * 2575672364521


def test_binom_examples():
    assert binom_mod_p(40, 26, 7) == math.comb(40, 26) % 7 == 3
    assert binom_mod_p(12345, 0, 13) == 1
    assert binom_mod_p(5, 3, 2) == 0
    assert binom_mod_p(3, 5, 7) == 0
    with pytest.raises(ValueError):
        binom_mod_p(10, 2, 9)
    # n, k >= 0 must be ints, and a bool is no int here
    for n, k in ((10, 0.5), (10.0, 3), (True, True), (10, "3"), (-1, 0), (5, -2)):
        with pytest.raises(ValueError):
            binom_mod_p(n, k, 7)


@given(n=st.integers(0, 400), k=st.integers(0, 400), p=st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_binom_matches_big_integer(n, k, p):
    assert binom_mod_p(n, k, p) == math.comb(n, k) % p


def test_binom_matches_lucas_reference_on_long_operands():
    rng = random.Random(20240818)
    e = 10**4
    for p in (7, 11, 13, 101):
        for _ in range(2):
            digits_n = [rng.randrange(p) for _ in range(e - 1)] + [rng.randrange(1, p)]
            # dominated k: every digit at most n's, so the residue is nonzero
            digits_k = [rng.randint(0, d) for d in digits_n]
            n = _from_digits(digits_n, p)
            k = _from_digits(digits_k, p)
            expected = _lucas_reference(n, k, p)
            assert expected != 0
            assert binom_mod_p(n, k, p) == expected, (p, "dominated")
            k = rng.randint(0, n)
            assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p), (p, "random")
            for k in (0, n, n + 1, n + rng.randint(1, n)):
                assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p), (p, "edge")


def test_binom_matches_lucas_reference_at_digit_boundaries():
    for p in (7, 11, 13, 101):
        for n in range(2 * p + 2):
            for k in (0, 1, n // 2, n - 1, n, n + 1, n + p):
                if k >= 0:
                    assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p), (n, k, p)
        for e in (1, 2, 31, 32, 33, 200):
            top = p**e
            for n in (top - 1, top, top + 1):
                for k in (0, 1, p - 1, top - 1, top, n, n + 1, n // 3):
                    assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p), (e, p)


def _chunk_base(p):
    """The largest power of p at most 2^12, or p itself above 2^12."""
    base = p
    while base * p <= 2**12:
        base *= p
    return base


def test_chunk_tables_brute_force():
    for p in (2, 3, 5, 7, 11, 13):
        digit_sum = _chunk_tables(p)
        assert len(digit_sum) == _chunk_base(p)
        for x in range(len(digit_sum)):
            digits = _divmod_digits(x, p, 12)
            assert digit_sum[x] == sum(digits), (p, x)


def test_binom_chunks_match_lucas_reference():
    # 61 is the largest prime with digit-sum tables (two digits per chunk);
    # 4093 and 4099, below and above 2^12, have one digit per chunk and
    # compare digits.
    rng = random.Random(20261020)
    for p in (2, 3, 61, 4093, 4099):
        base = _chunk_base(p)
        m = round(math.log(base, p))  # digits per chunk
        for j in (1, 2, 3, 31, 32, 33):
            top = base**j
            for n in (top - 1, top, top + 1):
                digits_n = _divmod_digits(n, p, j * m + 1)
                dominated = _from_digits([rng.randint(0, d) for d in digits_n], p)
                assert binom_mod_p(n, dominated, p) != 0
                ks = [0, 1, p - 1, p, base - 1, base, top - 1, top, n, n + 1]
                for k in ks + [dominated, rng.randint(0, n)]:
                    assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p), (p, j, n, k)
            for t in {1, j // 2 + 1, j}:
                low = t * m  # the lowest digit of chunk t
                pairs = [
                    # n - k borrows from digit low + 1 to low, inside chunk t
                    # (across a boundary when m = 1) ...
                    (p ** (low + 1), p**low),
                    # ... and from digit low to low - 1, only across the
                    # boundary below chunk t
                    (p**low, p ** (low - 1)),
                ]
                for n, k in pairs + [(n + top * p * p, k) for n, k in pairs]:
                    assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p) == 0, (p, n, k)
                    assert binom_mod_p(n + k, k, p) == _lucas_reference(n + k, k, p) != 0


def test_binom_large_prime_finishes():
    # C(p - 1, k) = (-1)^k and C(p - 2, k) = (-1)^k (k + 1) mod p; each
    # digit binomial takes min(k, p - 1 - k) steps, not an exact C(p - 1, k).
    p = 1_000_003
    # CPU time of this process, so that load on the host does not count
    start = time.process_time()
    assert binom_mod_p(p - 1, p // 2, p) == (-1) ** (p // 2) % p
    for k in (p // 2, (p - 3) // 2):
        assert binom_mod_p(p - 2, k, p) == (-1) ** k * (k + 1) % p
    assert time.process_time() - start < 1


@settings(max_examples=300)
@given(
    p=st.sampled_from([2, 7, 11, 101]),
    t=st.integers(0, 60),
    m=st.integers(1, 10**40),
    slack=st.integers(0, 10**40),
)
@example(p=7, t=0, m=1, slack=0)
@example(p=7, t=40, m=7**5, slack=0)
def test_binom_above_valuation_matches_lucas_reference(p, t, m, slack):
    k = m * p**t
    n = k + slack
    assert binom_mod_p(n, k, p) == _lucas_reference(n, k, p)
    assert binom_mod_p(n, 0, p) == _lucas_reference(n, 0, p) == 1
    assert binom_mod_p(n, n, p) == _lucas_reference(n, n, p) == 1


@settings(max_examples=300)
@given(
    p=st.sampled_from([2, 7, 11, 101]),
    e=st.integers(1, 300),
    s=st.integers(1, 400),
    data=st.data(),
)
@example(p=7, e=5, s=1, data=None)
def test_expansion_digits_match_extraction(p, e, s, data):
    r = data.draw(st.integers(0, s - 1)) if data is not None else 0
    power = p**e
    low = power * r // s
    top = data.draw(st.integers(0, 5)) if data is not None else 3
    for n in range(low, min(low + top, power - 1) + 1):
        assert expansion_digits(n, r, s, p, e, power) == digits_fixed(n, p, e)


def test_expansion_digits_carry_and_errors():
    # 1/6 = 0.1111... in base 7, so D = floor(7^5 / 6) = 11111 in base 7
    power = 7**5
    assert expansion_digits(power // 6, 1, 6, 7, 5, power) == [1] * 5
    assert expansion_digits(power // 6 + 8, 1, 6, 7, 5, power) == [2, 2, 1, 1, 1]
    # r/s = 16806/16807 = 0.66666 in base 7: D = 7^5 - 1, the largest 5-digit n
    assert expansion_digits(power - 1, power - 1, power, 7, 5, power) == [6] * 5
    # D = 16666 in base 7, and n = D + 1 carries through four digits
    r = 2 * 7**4 - 1
    assert expansion_digits(r + 1, r, power, 7, 5, power) == [0, 0, 0, 0, 2]
    with pytest.raises(ValueError):
        expansion_digits(power // 6 - 1, 1, 6, 7, 5, power)  # n - D < 0
    with pytest.raises(ValueError):
        expansion_digits(power, 1, 6, 7, 5, power)  # n >= p^e
    with pytest.raises(ValueError):
        expansion_digits(10, 6, 6, 7, 5, power)  # r/s not in [0, 1)


def test_ceil_mul_examples():
    assert ceil_mul(F(2, 5), 48) == 20
    assert ceil_mul(F(5, 6), 48) == 40
    assert ceil_mul(F(0), 12345) == 0
    assert ceil_mul(F(1, 3), 0) == 0


@given(
    c=st.fractions(min_value=0, max_value=3),
    m=st.integers(0, 10**6),
)
def test_ceil_mul_defect_in_unit_interval(c, m):
    val = ceil_mul(c, m)
    defect = val - m * c
    assert 0 <= defect < 1


def test_digits_fixed():
    assert digits_fixed(26, 7, 2) == [5, 3]
    assert digits_fixed(0, 5, 3) == [0, 0, 0]
    assert digits_fixed(2280, 7, 4) == [5, 3, 4, 6]
    with pytest.raises(ValueError):
        digits_fixed(49, 7, 2)
    with pytest.raises(ValueError):
        digits_fixed(-1, 7, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: digits_fixed(5.0, 7, 3),  # a float n
        lambda: digits_fixed(5, 7, True),  # a bool digit length
        lambda: digits_fixed(5, 7, 2.5),  # a fractional digit length
        lambda: digits_fixed(5, 1, 3),  # a base below 2
        lambda: ceil_mul("1/2", 2.5),  # a fractional multiplier
        lambda: ceil_mul(F(1, 2), -1),  # a negative multiplier
    ],
)
def test_digits_fixed_and_ceil_mul_check_their_integer_arguments(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_digits_fixed_divide_and_conquer_path():
    rng = random.Random(7)
    for p in (2, 7, 97):
        for e in (33, 150, 1000):
            n = rng.randrange(p**e)
            digs = digits_fixed(n, p, e)
            assert sum(d * p**i for i, d in enumerate(digs)) == n
            assert all(0 <= d < p for d in digs)


_WIDE = random.Random(29).getrandbits(40_000)  # m % p^e is a random e-digit n


@settings(max_examples=300)
@given(
    p=st.sampled_from([2, 7, 97, 101]),
    e=st.integers(0, 200),
    m=st.one_of(st.sampled_from([0, -1]), st.integers(0, 2**1400)),
)
@example(p=7, e=0, m=0)
@example(p=2, e=32, m=-1)
@example(p=7, e=33, m=-1)
@example(p=97, e=64, m=0)
@example(p=101, e=65, m=-1)
# p^ceil(e/2) above _DIV_LIMIT bits: the top splits are recursive divisions
@example(p=101, e=1203, m=-1)
@example(p=101, e=5000, m=_WIDE)
@example(p=7, e=2851, m=-1)
@example(p=7, e=9000, m=_WIDE)
@example(p=2, e=8002, m=_WIDE)
@example(p=4093, e=700, m=-1)
def test_digits_fixed_matches_repeated_divmod(p, e, m):
    n = m % p**e  # m = 0 and m = -1 give the edges n = 0 and n = p^e - 1
    assert digits_fixed(n, p, e) == _divmod_digits(n, p, e)
    with pytest.raises(ValueError):
        digits_fixed(p**e, p, e)


def _division_cases(b):
    """Dividends a < 2^n b for an n-bit divisor b: any, the edge 2^n b - 1,
    and those with a >> n = b - 1, whose top half is b's unless b's low
    half is 0 (the a12 >> n == b1 branch of _div3n2n)."""
    n = b.bit_length()
    return st.tuples(
        st.one_of(
            st.integers(0, (b << n) - 1),
            st.just((b << n) - 1),
            st.integers(0, (1 << n) - 1).map(lambda low: ((b - 1) << n) + low),
        ),
        st.just(b),
    )


def _edge(b):
    return (b << b.bit_length()) - 1, b


_ANY_DIVISOR = st.integers(1, 3 * _DIV_LIMIT).flatmap(
    lambda n: st.integers(1 << (n - 1), (1 << n) - 1)
)
_POWER_DIVISOR = st.builds(pow, st.sampled_from([2, 3, 7, 101, 4093]), st.integers(1, 1200))


@settings(max_examples=300, deadline=None)
@given(ab=st.one_of(_ANY_DIVISOR, _POWER_DIVISOR).flatmap(_division_cases))
@example(ab=(101**11745 - 1, 101**5873))  # the top split of an e = 11,745 extraction
@example(ab=_edge(101**5873))  # 39k bits
@example(ab=_edge((1 << 20000) + 7**5000))  # an odd bit length, 20,001
@example(ab=(7**57000 - 12345, 7**28500))  # an 80k-bit divisor
@example(ab=(0, 7**3000))
def test_recursive_division_matches_divmod(ab):
    a, b = ab
    n = b.bit_length()
    assert a < b << n
    assert _div2n1n(a, b, n) == divmod(a, b)


def test_digits_fixed_never_divides_large_operands_with_builtin_divmod(monkeypatch):
    # Shadowing module globals record the dividend of every builtin divmod
    # that padic makes (above the cutoff, every split recurses) and check
    # the precondition of every recursive division, a < 2^n b for n-bit b.
    sizes = []

    def recording_divmod(a, b):
        sizes.append(a.bit_length())
        return divmod(a, b)

    def checked_div2n1n(a, b, n):
        assert b.bit_length() == n and 0 <= a < b << n
        return _div2n1n(a, b, n)

    monkeypatch.setattr(padic, "divmod", recording_divmod, raising=False)
    monkeypatch.setattr(padic, "_div2n1n", checked_div2n1n)
    n = random.Random(10**5).randrange(7**10**5)
    digits = digits_fixed(n, 7, 10**5)
    assert sizes and max(sizes) <= 2 * _DIV_LIMIT
    assert _from_digits(digits, 7) == n


def test_dominated_search_examples():
    assert exists_dominated_in_interval(40, 26, 26, 7, 2) == 26
    assert exists_dominated_in_interval(123, 0, 123, 7, 3) == 0
    assert exists_dominated_in_interval(7, 1, 6, 7, 2) is None
    assert exists_dominated_in_interval(10, 5, 4, 3, 3) is None  # empty interval
    assert exists_dominated_in_interval(10, -5, 0, 3, 3) == 0  # clamped
    for e in (1.5, True, "2", 0):
        with pytest.raises(ValueError):
            exists_dominated_in_interval(5, 1, 3, 7, e)


@settings(max_examples=300)
@given(
    p=st.sampled_from([2, 3, 5]),
    e=st.integers(1, 4),
    data=st.data(),
)
def test_dominated_search_matches_brute_force(p, e, data):
    cap = p**e - 1
    a = data.draw(st.integers(0, cap))
    lo = data.draw(st.integers(-3, cap + 3))
    hi = data.draw(st.integers(-3, cap + 3))
    assert exists_dominated_in_interval(a, lo, hi, p, e) == brute_least_dominated(
        a, lo, hi, p, e
    )


def test_dominated_search_full_interval_returns_zero():
    for p in (2, 5, 11):
        for e in (1, 2, 5):
            for a in (0, 1, p**e - 1, p ** (e - 1)):
                assert exists_dominated_in_interval(a, 0, a, p, e) == 0


def test_dominated_search_consistent_with_lucas():
    rng = random.Random(20240817)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        e = rng.randint(1, 5)
        cap = p**e - 1
        a = rng.randint(0, cap)
        lo = rng.randint(0, cap)
        hi = rng.randint(lo, cap)
        k = exists_dominated_in_interval(a, lo, hi, p, e)
        if k is not None:
            assert lo <= k <= hi
            assert binom_mod_p(a, k, p) != 0
            # minimality
            assert brute_least_dominated(a, lo, hi, p, e) == k
