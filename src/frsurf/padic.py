"""Base-p digit combinatorics.

Lucas residues, exact ceilings of rational multiples, and a digit-dominance
search returning the least k in an interval with C(a, k) != 0 mod p.  Digit
vectors come from two sources: the divide-and-conquer extraction
`digits_fixed`, which works for any integer, and `expansion_digits`, which
reads the digits of an integer just above floor(p^e r / s) off the periodic
base-p expansion of r/s without dividing big integers.  `digits_fixed`
splits by recursive division, so it costs O(n^1.58) for n bits (Karatsuba),
not O(n^2).  Lucas' zero test reads n and k in chunks of base B = p^m <=
2^12 and decides by Kummer's theorem from a per-prime table of digit sums
when a chunk holds two digits or more (p <= 61); with one digit per chunk it
compares the digits.  A nonzero residue is the product of the digit
binomials.  The search reads either source and then makes one pass over the
digits (never a scan of the interval), so exponents with 10^5 base-p digits
are fine.  Powers p^k, for the digit trees, the range checks and
`fedder`'s p^e, come from one bounded memo, `_power`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import compress, count, repeat
from operator import gt, lt, sub

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_TABLE_BOUND = 1 << 12
_DIV_LIMIT = 4000  # bits; builtin divmod of 3.12+ recurses only for divisors above 9,000


def is_prime(n: int) -> bool:
    """Deterministic primality check (Miller-Rabin with fixed bases).

    Exact for n <= psi_13 = 3317044064679887385961981, far beyond any
    characteristic used here: the least strong pseudoprime to the bases 2
    to 41 (Sorenson-Webster, Math. Comp. 86, 2017), which base 43 rejects.
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


def require_int(value, least: int, name: str) -> None:
    """ValueError unless value is an int (not a bool) and value >= least."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def ceil_mul(c, m: int) -> int:
    """Exact ceil(m * c) for a rational c >= 0 and integer m >= 0."""
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"coefficient must be nonnegative, got {c}")
    require_int(m, 0, "multiplier m")
    q, r = divmod(m * c.numerator, c.denominator)
    return q + (1 if r else 0)


@functools.lru_cache(maxsize=64)
def _power(p: int, k: int) -> int:
    """p^k by square-and-multiply from p^(k >> 1), one memo entry per level."""
    if k <= 8:
        return p**k
    h = _power(p, k >> 1)
    return h * h * p if k & 1 else h * h


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for an n-bit b and 0 <= a < 2^n b by recursive division
    (Burnikel and Ziegler, 1998), at a few multiplications' cost; builtin
    divmod (quadratic on CPython 3.11) runs only for n <= _DIV_LIMIT."""
    if n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 2^n + a3, b) for b = b1 2^n + b2 (n-bit b1), a12 < b and
    a3 < 2^n: the quotient of a12 by b1, corrected at most twice."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _fill_digits(n: int, lo: int, e: int, p: int, out: list) -> None:
    if n == 0:
        return
    if e <= 32:
        i = lo
        while n:
            n, d = divmod(n, p)
            out[i] = d
            i += 1
        return
    # the top part is the shorter, so it is below p^half < 2^(bits of p^half)
    half = (e + 1) >> 1
    power = _power(p, half)
    top, bottom = _div2n1n(n, power, power.bit_length())
    _fill_digits(bottom, lo, half, p, out)
    _fill_digits(top, lo + half, e - half, p, out)


def digits_fixed(n: int, p: int, e: int) -> list[int]:
    """Little-endian base-p digits of n, exactly e of them, for any base p >= 2.

    Each split divides by p^ceil(e/2) with `_div2n1n`, a few multiplications,
    so the tree costs O(n^1.58) for n bits; builtin divmod splits were O(n^2).
    """
    require_int(n, 0, "n")
    require_int(p, 2, "base p")
    require_int(e, 0, "digit length e")
    if n >= _power(p, e):
        raise ValueError(f"{n} is not representable with {e} base-{p} digits")
    out = [0] * e
    _fill_digits(n, 0, e, p, out)
    return out


def expansion_digits(n: int, r: int, s: int, p: int, e: int, power: int) -> list[int]:
    """Little-endian base-p digits of n, exactly e of them, for n just above
    D = floor(p^e r / s), where 0 <= r < s and power = p^e.

    Read from the top, the digits of D are the first e digits of the base-p
    expansion of r/s: d_t = floor(p rho_{t-1} / s) and rho_t = p rho_{t-1}
    mod s, with rho_0 = r.  The remainders repeat within s steps, so the
    digits are a prefix followed by a repeated cycle, built by list
    repetition.  Then n - D, computed exactly in linear time, is added with
    a carry; it should be small, since each unit costs a pass of the carry
    loop.  Raises ValueError if n < D or n >= p^e.
    """
    if not 0 <= r < s:
        raise ValueError(f"{r}/{s} is not in [0, 1)")
    if n >= power:
        raise ValueError(f"{n} is not representable with {e} base-{p} digits")
    delta = n - power * r // s
    if delta < 0:
        raise ValueError(f"{n} lies below floor({p}^{e} * {r}/{s})")
    top: list[int] = []
    seen: dict[int, int] = {}
    rho = r
    while len(top) < e and rho not in seen:
        seen[rho] = len(top)
        d, rho = divmod(p * rho, s)
        top.append(d)
    if len(top) < e:
        cycle = top[seen[rho]:]
        reps, rest = divmod(e - len(top), len(cycle))
        top += cycle * reps + cycle[:rest]
    digits = top[::-1]
    i = 0
    while delta:
        delta, digits[i] = divmod(delta + digits[i], p)
        i += 1
    return digits


def _binom_digit(a: int, b: int, p: int) -> int:
    """C(a, b) mod p for digits b <= a < p, by the multiplicative formula
    over min(b, a - b) factors and one modular inverse."""
    b = min(b, a - b)
    num = den = 1
    for i in range(1, b + 1):
        num = num * (a - b + i) % p
        den = den * i % p
    return num * pow(den, -1, p) % p


@functools.lru_cache(maxsize=8)
def _chunk_tables(p: int) -> list[int]:
    """The base-p digit sum S(x) of each chunk 0 <= x < B, where B = p^m is
    the largest power of p at most 2^12 (read for p^2 <= 2^12, where m >= 2).
    A chunk x = h p + d has S(x) = S(h) + d."""
    digit_sum = [0]
    while len(digit_sum) * p <= _TABLE_BOUND:
        digit_sum = [s + d for s in digit_sum for d in range(p)]
    return digit_sum


def _dominated(n: int, k: int, p: int) -> bool:
    """Whether each base-p digit of k is at most n's; 0 <= k <= n.  n and k
    are read in base-B chunks, B = p^m the largest power of p at most 2^12
    (p itself when p^2 > 2^12): one chunk each if n < B, else by `digits_fixed`.
    By Kummer's theorem, S(n_c) - S(k_c) - S(n_c - k_c) (digit sums from
    `_chunk_tables`) is -(p - 1) times the borrows of n_c - k_c, so k is
    dominated exactly when every n_c >= k_c and those sums balance.
    With one digit per chunk (p^2 > 2^12) the table would be the identity,
    so the digit comparison alone decides.  Leading zero chunks are harmless."""
    table = _chunk_tables(p) if p * p <= _TABLE_BOUND else None
    base = len(table) if table else p
    if n < base:
        # one chunk: the same test on the three table entries themselves
        return table is None or table[n] == table[k] + table[n - k]
    e = int(n.bit_length() / math.log2(base)) + 2
    nc, kc = digits_fixed(n, base, e), digits_fixed(k, base, e)
    dc = list(map(sub, nc, kc))
    s = table.__getitem__ if table else None
    return min(dc) >= 0 and (s is None or sum(map(s, nc)) == sum(map(s, kc)) + sum(map(s, dc)))


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem: 0 unless every base-p digit k_i <= n_i
    (`_dominated`), else the product of the digit binomials C(n_i, k_i) mod p
    (`_binom_digit`) over the digits from `digits_fixed`, at every prime."""
    require_prime(p)
    require_int(n, 0, "n")
    require_int(k, 0, "k")
    if k > n or not _dominated(n, k, p):
        return 0
    e = int(n.bit_length() / math.log2(p)) + 2
    factors = map(_binom_digit, digits_fixed(n, p, e), digits_fixed(k, p, e), repeat(p))
    return functools.reduce(lambda acc, c: acc * c % p, factors, 1)


def _least_dominated(digits_a: list, digits_lo: list, lo: int, hi: int, p: int, power: int):
    """Least k in [lo, hi] whose digits are <= a's, from the e-digit
    little-endian vectors of a and lo, or None; power is p^e.

    lo itself qualifies unless some digit of lo exceeds a's.  Otherwise, at
    the highest such position f, k must exceed lo there or above: the least
    such k bumps lo's digit at the lowest position above f where it is below
    a's, keeps the digits above and zeroes those below.  Both comparisons
    are a `map` over the digit lists, so they run at C speed.
    """
    e = len(digits_a)
    over = next(compress(count(), map(gt, reversed(digits_lo), reversed(digits_a))), None)
    if over is None:
        return lo
    f = e - 1 - over
    bump = next(compress(count(f + 1), map(lt, digits_lo[f + 1:], digits_a[f + 1:])), None)
    if bump is None:
        return None
    # p^bump, from the smaller of the powers p^bump and p^(e - bump)
    step = p**bump if 2 * bump < e else power // p ** (e - bump)
    k = (lo // step + 1) * step
    return k if k <= hi else None


def exists_dominated_in_interval(a: int, lo: int, hi: int, p: int, e: int):
    """Least k in [lo, hi] whose base-p digits are <= a's pointwise, or None.

    Digit dominance is exactly C(a, k) != 0 mod p (Lucas).  lo and hi are
    clamped to [0, p^e - 1]; an empty interval yields None, and lo = 0
    yields 0, which every a dominates.  Otherwise the digits of a and lo
    come from `digits_fixed` and one pass over them decides.
    """
    require_prime(p)
    require_int(e, 1, "digit length e")
    cap = _power(p, e) - 1
    if not 0 <= a <= cap:
        raise ValueError(f"{a} is not representable with {e} base-{p} digits")
    lo = max(lo, 0)
    hi = min(hi, cap)
    if hi < lo:
        return None
    if lo == 0:
        return 0
    return _least_dominated(digits_fixed(a, p, e), digits_fixed(lo, p, e), lo, hi, p, cap + 1)
