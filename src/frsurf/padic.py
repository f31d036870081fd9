"""Base-p digit combinatorics.

Lucas residues, exact ceilings of rational multiples, and a digit-dominance
search returning the least k in an interval with C(a, k) != 0 mod p.  Both
the residues and the search read base-p digit vectors from one
divide-and-conquer extraction, `digits_fixed`, and then make one pass over
the digits (never a scan of the interval), so exponents with 10^5 base-p
digits are fine.
"""

from __future__ import annotations

import math
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality check (Miller-Rabin with fixed bases).

    The fixed base set is exact for n < 3.3 * 10^24, far beyond any
    characteristic used here.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"expected a prime, got {p!r}")


def ceil_mul(c, m: int) -> int:
    """Exact ceil(m * c) for a rational c >= 0 and integer m >= 0."""
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"coefficient must be nonnegative, got {c}")
    if m < 0:
        raise ValueError(f"multiplier must be nonnegative, got {m}")
    q, r = divmod(m * c.numerator, c.denominator)
    return q + (1 if r else 0)


def _power(p: int, k: int, cache: dict) -> int:
    v = cache.get(k)
    if v is None:
        if k <= 8:
            v = p**k
        else:
            half = k >> 1
            v = _power(p, half, cache) * _power(p, k - half, cache)
        cache[k] = v
    return v


def _fill_digits(n: int, lo: int, e: int, p: int, out: list, cache: dict) -> None:
    if n == 0:
        return
    if e <= 32:
        i = lo
        while n:
            n, d = divmod(n, p)
            out[i] = d
            i += 1
        return
    half = e >> 1
    top, bottom = divmod(n, _power(p, half, cache))
    _fill_digits(bottom, lo, half, p, out, cache)
    _fill_digits(top, lo + half, e - half, p, out, cache)


def digits_fixed(n: int, p: int, e: int, _cache: dict | None = None) -> list[int]:
    """Little-endian base-p digits of n, exactly e of them.

    Divide-and-conquer splitting keeps extraction near O(M(n) log e); plain
    repeated divmod would be quadratic for 10^5-digit operands.
    """
    cache = _cache if _cache is not None else {}
    if n < 0 or n >= _power(p, e, cache):
        raise ValueError(f"{n} is not representable with {e} base-{p} digits")
    out = [0] * e
    _fill_digits(n, 0, e, p, out, cache)
    return out


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem.

    The residue is the product of C(n_i, k_i) mod p over the base-p digits
    n_i, k_i.  Both digit vectors come from `digits_fixed`, sized to the
    number of base-p digits of n, so a 10^5-digit n costs about what the
    dominance search costs, not O(e^2).  Never touches a factorial of a big
    argument; each factor is a binomial of two digits below p.  Returns 0
    when k > n.
    """
    require_prime(p)
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if k > n:
        return 0
    cache: dict = {}
    # A lower bound on the digit count of n, raised until p^e > n.
    e = max(0, int((n.bit_length() - 1) / math.log2(p)))
    while _power(p, e, cache) <= n:
        e += 1
    acc = 1
    for nd, kd in zip(digits_fixed(n, p, e, cache), digits_fixed(k, p, e, cache)):
        if kd > nd:
            return 0
        if 0 < kd < nd:
            acc = acc * (math.comb(nd, kd) % p) % p
    return acc


def exists_dominated_in_interval(a: int, lo: int, hi: int, p: int, e: int):
    """Least k in [lo, hi] whose base-p digits are <= a's pointwise, or None.

    Digit dominance is exactly C(a, k) != 0 mod p (Lucas).  lo and hi are
    clamped to [0, p^e - 1]; an empty interval yields None.  One pass over
    the e digit positions: walk from the most significant digit of lo,
    remember the lowest position where lo's digit could be bumped within
    a's digit, and either accept lo itself or bump-and-zero below.
    """
    require_prime(p)
    if e < 1:
        raise ValueError(f"digit length must be positive, got {e}")
    cache: dict = {}
    cap = _power(p, e, cache) - 1
    if not 0 <= a <= cap:
        raise ValueError(f"{a} is not representable with {e} base-{p} digits")
    lo = max(lo, 0)
    hi = min(hi, cap)
    if hi < lo:
        return None
    digits_a = digits_fixed(a, p, e, cache)
    digits_lo = digits_fixed(lo, p, e, cache)
    bump = None
    failed = False
    for i in range(e - 1, -1, -1):
        if digits_lo[i] > digits_a[i]:
            failed = True
            break
        if digits_lo[i] < digits_a[i]:
            bump = i
    if not failed:
        return lo
    if bump is None:
        return None
    step = _power(p, bump, cache)
    k = (lo // step + 1) * step
    return k if k <= hi else None
