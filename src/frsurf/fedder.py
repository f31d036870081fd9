"""Global F-regularity of (P^1, c1*P1 + c2*P2 + c3*P3) by the monomial criterion.

With the marked points normalized to 0, infinity and 1, the pair passes at
Frobenius exponent e when x^a1 y^a2 (x+y)^a3, with a_i = ceil((p^e - 1) c_i),
contains a monomial x^i y^j with i, j <= p^e - 2.  Expanding (x+y)^a3 turns
this into a Lucas digit-dominance condition on k = i - a1, so certificates
are found by the dominance search instead of polynomial expansion.  The
search reads the digits of a3 and of the least admissible k off the base-p
expansions of c3 and c2 + c3 - 1 (`test_at`); `verify_witness` re-checks a
witness from digits extracted from the integers, so it stays independent.
`fedder_exponents`, `test_at` and `verify_witness` read p^e from `padic`'s
power memo (`_power`), so checking a certificate builds it once.

The monomial condition is sufficient, not known to be necessary, so failure
up to e_max reports "inconclusive"; only the degree precheck (coefficient
sum >= 2 means -(K + D) is not big) yields a definite negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    _dominated,
    _least_dominated,
    _power,
    ceil_mul,
    expansion_digits,
    require_int,
    require_prime,
)

REGULAR = "regular"
NOT_REGULAR = "not_regular"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class P1Pair:
    """Up to three coefficients in [0, 1), attached to 0, infinity, 1."""

    coeffs: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.coeffs) != 3:
            raise ValueError("a P1 pair carries exactly three coefficient slots")
        for c in self.coeffs:
            if not 0 <= c < 1:
                raise ValueError(f"coefficient {c} outside [0, 1)")

    @classmethod
    def from_coeffs(cls, values) -> "P1Pair":
        vals = [Fraction(v) for v in values]
        if len(vals) > 3:
            raise ValueError(
                "at most three marked points are supported "
                "(normalize to 0, infinity, 1 first)"
            )
        while len(vals) < 3:
            vals.append(Fraction(0))
        return cls(tuple(vals))

    @property
    def degree(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def marked_points(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)


@dataclass(frozen=True)
class FRegCertificate:
    """A checkable witness: p, e, the exponents, and the monomial (i, j)."""

    p: int
    e: int
    a: tuple[int, int, int]
    witness: tuple[int, int]


@dataclass(frozen=True)
class FRegVerdict:
    status: str
    certificate: FRegCertificate | None = None
    reason: str | None = None
    e_tried: int | None = None
    toric: bool = False

    @property
    def is_regular(self) -> bool:
        return self.status == REGULAR


def verdict_to_payload(verdict: FRegVerdict) -> dict:
    """JSON-ready form; `verdict_from_payload` restores the verdict."""
    out = {"status": verdict.status, "toric": verdict.toric}
    if verdict.certificate is not None:
        c = verdict.certificate
        out["certificate"] = {"p": c.p, "e": c.e, "a": list(c.a), "witness": list(c.witness)}
    if verdict.reason:
        out["reason"] = verdict.reason
    if verdict.e_tried is not None:
        out["e_max_tried"] = verdict.e_tried
    return out


def verdict_from_payload(payload: dict) -> FRegVerdict:
    c = payload.get("certificate")
    if c is not None:
        c = FRegCertificate(p=c["p"], e=c["e"], a=tuple(c["a"]), witness=tuple(c["witness"]))
    return FRegVerdict(
        status=payload["status"],
        certificate=c,
        reason=payload.get("reason"),
        e_tried=payload.get("e_max_tried"),
        toric=payload.get("toric", False),
    )


def _checked_power(p: int, e: int) -> int:
    """p^e for a prime p and an int e >= 1 (not a bool), else ValueError."""
    require_prime(p)
    require_int(e, 1, "Frobenius exponent e")
    return _power(p, e)


def fedder_exponents(pair: P1Pair, p: int, e: int) -> tuple[int, int, int]:
    """The exponents a_i = ceil((p^e - 1) c_i)."""
    power = _checked_power(p, e)
    return tuple(ceil_mul(c, power - 1) for c in pair.coeffs)


def verify_witness(a, i: int, j: int, p: int, e: int) -> bool:
    """Check that x^i y^j really occurs in x^a1 y^a2 (x+y)^a3 with i, j <= p^e - 2.

    The coefficient of x^i y^j is C(a3, i - a1), nonzero mod p iff the
    digits of i - a1 are dominated by those of a3 (`_dominated`).  Low
    zero digits of i - a1 are always dominated: its gcd with p^e strips them.
    """
    power = _checked_power(p, e)
    cap = power - 2
    a1, a2, a3 = a
    if i + j != a1 + a2 + a3:
        return False
    if i < a1 or j < a2:
        return False
    if i > cap or j > cap:
        return False
    k = i - a1
    g = math.gcd(k, power) if k % p == 0 else 1
    return _dominated(a3 // g, k // g, p)


def test_at(pair: P1Pair, p: int, e: int) -> FRegCertificate | None:
    """Search for a certificate at a fixed Frobenius exponent e.

    Monomial existence reduces to a dominated k = i - a1 in [lo, hi], where
    lo = max(0, a2 + a3 - (p^e - 2)) and hi = min(a3, p^e - 2 - a1); the
    smallest such k gives the canonical witness.  lo = 0 gives k = 0, which
    every a3 dominates.  Otherwise the digits of a3 and lo are read off
    base-p expansions by `expansion_digits`, with no big-integer division,
    because each lies just above D = floor(p^e c) for a c in [0, 1):

    - c = c3 = r/s: a3 = D + [rho_e > r] with rho_e = p^e r mod s, since
      a3 = ceil(D + (rho_e - r)/s);
    - c = max(0, c2 + c3 - 1): lo - D is in {1, 2, 3}, since a2 + a3 lies
      in [(p^e - 1)(c2 + c3), (p^e - 1)(c2 + c3) + 2).  (lo > 0 with
      c2 + c3 < 1 needs p^e < 3 s2 s3, and then D = 0.)
    """
    a1, a2, a3 = fedder_exponents(pair, p, e)
    power = _power(p, e)
    cap = power - 2
    lo = max(0, a2 + a3 - cap)
    hi = min(a3, cap - a1)
    if hi < lo:
        return None
    if lo == 0:
        k = 0
    else:
        c2, c3 = pair.coeffs[1:]
        r2, s2, r3, s3 = c2.numerator, c2.denominator, c3.numerator, c3.denominator
        r = max(0, r2 * s3 + r3 * s2 - s2 * s3)
        k = _least_dominated(
            expansion_digits(a3, r3, s3, p, e, power),
            expansion_digits(lo, r, s2 * s3, p, e, power),
            lo,
            hi,
            p,
            power,
        )
    if k is None:
        return None
    return FRegCertificate(p=p, e=e, a=(a1, a2, a3), witness=(a1 + k, a2 + a3 - k))


def is_globally_F_regular(pair: P1Pair, p: int, e_max: int = 4) -> FRegVerdict:
    """Three-valued verdict: regular, definitely not, or inconclusive at e_max."""
    require_prime(p)
    require_int(e_max, 1, "e_max")
    if pair.degree >= 2:
        return FRegVerdict(
            NOT_REGULAR,
            reason="degree: coefficient sum is >= 2, so -(K+D) is not big",
        )
    if pair.marked_points() <= 2:
        return FRegVerdict(
            REGULAR, toric=True, reason="at most two marked points: toric pair"
        )
    for e in range(1, e_max + 1):
        cert = test_at(pair, p, e)
        if cert is not None:
            return FRegVerdict(REGULAR, certificate=cert)
    return FRegVerdict(INCONCLUSIVE, e_tried=e_max)


# The two benchmark boundaries whose small primes need e = 2, and the
# hand-checked witness monomials for them.
CASE_D1 = P1Pair.from_coeffs((Fraction(2, 5), Fraction(2, 3), Fraction(5, 6)))
CASE_D2 = P1Pair.from_coeffs((Fraction(1, 3), Fraction(3, 4), Fraction(3, 4)))

D1_TABLE_PRIMES = (7, 11, 13, 17, 19, 23, 29)
D2_TABLE_PRIMES = (7, 11)

REFERENCE_WITNESSES: dict[tuple[str, int], tuple[int, int]] = {
    ("D1", 7): (46, 46),
    ("D1", 11): (115, 113),
    ("D1", 13): (166, 154),
    ("D1", 17): (287, 261),
    ("D1", 19): (357, 327),
    ("D1", 23): (491, 513),
    ("D1", 29): (775, 821),
    ("D2", 7): (44, 44),
    ("D2", 11): (108, 112),
}


@dataclass(frozen=True)
class HaraRow:
    case: str
    p: int
    e: int
    a: tuple[int, int, int]
    witness: tuple[int, int] | None
    reference_witness: tuple[int, int] | None
    reference_ok: bool | None


def _table_row(case: str, pair: P1Pair, p: int, e: int) -> HaraRow:
    a = fedder_exponents(pair, p, e)
    cert = test_at(pair, p, e)
    ref = REFERENCE_WITNESSES.get((case, p))
    ref_ok = verify_witness(a, ref[0], ref[1], p, e) if ref is not None else None
    return HaraRow(
        case=case,
        p=p,
        e=e,
        a=a,
        witness=cert.witness if cert is not None else None,
        reference_witness=ref,
        reference_ok=ref_ok,
    )


def hara_table(primes=None) -> list[HaraRow]:
    """Recompute the e = 2 verification table for the two benchmark boundaries.

    For primes inside the tabulated ranges only the tabulated case rows are
    emitted (the other case succeeds already at e = 1 there); primes outside
    both ranges get both cases computed without a reference column.
    """
    if primes is None:
        primes = D1_TABLE_PRIMES
    both = [("D1", CASE_D1, D1_TABLE_PRIMES), ("D2", CASE_D2, D2_TABLE_PRIMES)]
    rows = []
    for p in sorted(set(primes)):
        require_prime(p)
        if p <= 5:
            raise ValueError(f"characteristic must exceed 5, got {p}")
        cases = [c for c in both if p in c[2]] or both
        rows += [_table_row(case, pair, p, 2) for case, pair, _primes in cases]
    rows.sort(key=lambda r: (r.p, r.e, r.case))
    return rows
