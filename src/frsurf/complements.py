"""Verification and bounded search of N-complements on dual-graph germs.

A complement of level N in {1, 2, 3, 4, 6} is a coefficient vector Bc >= B
with N * Bc integral, K + Bc pairing to zero against every exceptional
curve, the pair (graph, Bc) log canonical but not klt, and the floor bound
N * Bc >= floor((N + 1) * B).  The search enumerates non-exceptional
coefficients on the 1/N grid, restricted to the values that can pass the
dominance, integrality and floor-bound checks, and solves the exceptional
ones from the trivial-pairing system (an affine map once the exceptional
lattice is factored).  An on-grid candidate pairs trivially with the
negative-definite exceptional lattice, so its crepant pullback is itself
and the search labels it (`graphs.label`) from the numerators it solved.
`verify_complement` judges certificates and classifies Bc
(`graphs.classify`); when K + Bc pairs trivially the solve returns Bc, so
both reach the same classification.  The checks compare integer numerators
over a common denominator; for the boundary B they are the pair's own
`den` and `num`.  The hypotheses, and the corpus generator's early
rejection, share one nef test (`_positive_dots`).  On abstract graphs the
search is complete but may come up empty.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Classification,
    LogPair,
    classify,
    dot_against_exceptionals,
    format_rational,
    GraphError,
    label,
    numerators,
)
from .rationals import is_standard

LEVELS = (1, 2, 3, 4, 6)

class ComplementHypothesisError(ValueError):
    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("complement hypotheses not met: " + "; ".join(self.failures))


@dataclass(frozen=True)
class ComplementReport:
    checks: dict[str, bool]
    details: tuple[str, ...]
    classification: Classification | None  # None when classify raised

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class ComplementCertificate:
    level: int
    coeffs: dict[str, Fraction]
    plt_case: bool


def verify_complement(pair: LogPair, bc, level: int) -> ComplementReport:
    """Evaluate the six defining checks; overall pass = all six.

    Bc is classified by the crepant pullback it defines (`classify`)."""
    graph = pair.graph
    if set(bc) != set(graph.ids):
        raise GraphError("complement vector must cover exactly the graph's vertices")
    bc = {v: c if type(c) is Fraction else Fraction(c) for v, c in bc.items()}
    den, num = numerators(bc)
    checks: dict[str, bool] = {}
    details: list[str] = []

    checks["level"] = level in LEVELS
    if not checks["level"]:
        details.append(f"level {level} is not in {{{','.join(map(str, LEVELS))}}}")

    bad = sorted(v for v, n in num.items() if n * pair.den < pair.num[v] * den)
    checks["dominates"] = not bad
    if bad:
        details.append("complement drops below the boundary at " + ", ".join(bad))

    bad = sorted(v for v, n in num.items() if level * n % den)
    checks["integral"] = not bad
    if bad:
        details.append(f"{level} * coefficient not integral at " + ", ".join(bad))

    bad = sorted(j for j, val in dot_against_exceptionals(graph, den, num).items() if val)
    checks["trivial_pairing"] = not bad
    if bad:
        details.append("(K + Bc) pairs nonzero against " + ", ".join(bad))

    try:
        cls = classify(pair.with_coeff(bc))  # with_coeff raises when Bc leaves [0, 1]
        checks["lc_not_klt"] = cls.is_lc and not cls.is_klt
        if not checks["lc_not_klt"]:
            details.append(f"pair with Bc classifies {cls.label}, need lc but not klt")
    except GraphError as exc:
        cls = None
        checks["lc_not_klt"] = False
        details.append(f"classification failed: {exc}")

    bad = sorted(v for v, n in num.items() if level * n < (level + 1) * pair.num[v] // pair.den * den)
    checks["floor_bound"] = not bad
    if bad:
        details.append(
            f"{level}*Bc < floor({level + 1}*B) at " + ", ".join(bad)
        )

    return ComplementReport(checks=checks, details=tuple(details), classification=cls)


def _require_hypotheses(pair: LogPair) -> None:
    failures = []
    try:
        cls = classify(pair)
        if not cls.is_klt:
            failures.append(f"pair is not klt (classified {cls.label})")
    except GraphError as exc:
        failures.append(str(exc))
        raise ComplementHypothesisError(failures)
    bad = _positive_dots(pair)
    if bad:
        failures.append("-(K+B) is not nef over the base (positive at " + ", ".join(bad) + ")")
    nonstd = sorted(v for v, c in pair.coeff.items() if not is_standard(c))
    if nonstd:
        failures.append(
            "non-standard coefficients at "
            + ", ".join(f"{v}={format_rational(pair.coeff[v])}" for v in nonstd)
        )
    if failures:
        raise ComplementHypothesisError(failures)


def _positive_dots(pair: LogPair) -> list[str]:
    """The exceptional curves that K + B pairs positively with, sorted:
    -(K+B) is nef over the base iff there are none.  An integer test that
    factors no lattice."""
    dots = dot_against_exceptionals(pair.graph, pair.den, pair.num)
    return sorted(j for j, v in dots.items() if v > 0)


def _grid(level: int, b) -> range:
    """Numerators m of the values m/level a complement may take over b.

    max(ceil(level*b), floor((level+1)*b)) <= m <= level: exactly the
    values in [0, 1] that pass the dominance, integrality and floor-bound
    checks of `verify_complement`.
    """
    n, d = b.as_integer_ratio()
    return range(max(-(-level * n // d), (level + 1) * n // d), level + 1)


def _search(pair: LogPair, level: int) -> ComplementCertificate | None:
    graph = pair.graph
    b = pair.coeff
    exc = graph.exceptional_ids
    nonexc = [v for v in graph.ids if not graph.vertex(v).exceptional]
    # The solved exceptional values x satisfy den*x = x0 + sum_v (m_v/level)
    # col_v (col_v zero unless v meets an exceptional curve), so level*den*x
    # is an integer affine map of the numerators m_v, and x is on the
    # 1/level grid iff den divides it.
    lattice = graph.lattice(exc)
    den = lattice.den
    base = [level * x for x in lattice.x0]
    zero = (0,) * len(exc)
    cols = [lattice.columns.get(v, zero) for v in nonexc]
    steps = [[c[i] for c in cols] for i in range(len(exc))]
    exc_grids = [_grid(level, b[j]) for j in exc]
    for combo in itertools.product(*(_grid(level, b[v]) for v in nonexc)):
        solved = []
        for t0, step, grid in zip(base, steps, exc_grids):
            m, r = divmod(t0 + sum(map(operator.mul, combo, step)), den)
            if r or m not in grid:
                break
            solved.append(m)
        else:
            b_exc = dict(zip(exc, solved))
            cls = label(graph, level, {**dict(zip(nonexc, combo)), **b_exc}, level, b_exc)
            if cls.is_lc and not cls.is_klt:
                bc = {**{v: Fraction(m, level) for v, m in zip(nonexc, combo)}, **cls.b}
                # in graph.ids order, the order in which a certificate payload lists it
                return ComplementCertificate(level, {v: bc[v] for v in graph.ids}, cls.is_plt)
    return None


def search_complement(pair: LogPair, level: int) -> ComplementCertificate | None:
    """First (lexicographic) complement at a fixed level, or None."""
    _require_hypotheses(pair)
    return _search(pair, level) if level in LEVELS else None


def minimal_complement(pair: LogPair) -> ComplementCertificate | None:
    """Smallest level in {1, 2, 3, 4, 6} carrying a complement."""
    _require_hypotheses(pair)
    for level in LEVELS:
        cert = _search(pair, level)
        if cert is not None:
            return cert
    return None
