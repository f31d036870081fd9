"""Line-oriented germ files.

Grammar (one declaration per line, '#' starts a comment):

    curve <id> self=<int> exceptional=<yes|no> [coeff=<q>] [genus=<int>]
    meet <id> <id> <positive int>
    boundary <name> [<id>=<q> ...]
    prime <p> [<p> ...]

Coefficients are exact fractions ("1/2", "1", never "0.5") in [0, 1].
Curve ids contain no '=' (a boundary entry splits at the first one).
Curve ids and boundary names are nonempty strings, without whitespace or
'#'; `render_germ` refuses any other, so all it writes parses back.
Only genus-0 curves are supported; a genus attribute other than 0 is
rejected.  Named boundary sections give alternative coefficient vectors
(missing vertices default to 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import DualGraph, GraphError, LogPair, Vertex
from .padic import is_prime
from .rationals import format_rational, parse_rational


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class GermFile:
    graph: DualGraph
    coeff: dict[str, Fraction]
    boundaries: dict[str, dict[str, Fraction]] = field(default_factory=dict)
    primes: list[int] = field(default_factory=list)

    def pair(self, boundary: str | None = None) -> LogPair:
        if boundary is None:
            return LogPair(self.graph, self.coeff)
        if boundary not in self.boundaries:
            raise GraphError(f"no boundary named {boundary!r}")
        return LogPair(self.graph, self.boundaries[boundary])


def _coeff(lineno: int, text: str) -> Fraction:
    try:
        q = parse_rational(text)
    except ValueError as exc:
        raise ParseError(lineno, str(exc))
    if not 0 <= q <= 1:
        raise ParseError(lineno, f"coefficient outside [0, 1]: {text}")
    return q


def parse_germ(text: str) -> GermFile:
    curves: list[Vertex] = []
    seen: dict[str, int] = {}
    coeff: dict[str, Fraction] = {}
    edges: list[tuple] = []
    edge_lines: dict[tuple, int] = {}
    boundaries: dict[str, dict[str, Fraction]] = {}
    boundary_lines: dict[str, int] = {}
    primes: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "curve":
            if len(tokens) < 2:
                raise ParseError(lineno, "curve needs an id")
            cid = tokens[1]
            if "=" in cid:
                raise ParseError(lineno, f"curve id {cid!r} contains '=': no boundary can name it")
            if cid in seen:
                raise ParseError(lineno, f"duplicate id {cid!r} (first on line {seen[cid]})")
            attrs = {}
            for tok in tokens[2:]:
                if "=" not in tok:
                    raise ParseError(lineno, f"expected key=value, got {tok!r}")
                key, val = tok.split("=", 1)
                if key in attrs:
                    raise ParseError(lineno, f"repeated attribute {key!r}")
                attrs[key] = val
            if "self" not in attrs:
                raise ParseError(lineno, f"curve {cid!r} is missing self=<int>")
            if "exceptional" not in attrs:
                raise ParseError(lineno, f"curve {cid!r} is missing exceptional=<yes|no>")
            try:
                self_int = int(attrs.pop("self"))
            except ValueError:
                raise ParseError(lineno, "self-intersection must be an integer")
            exc_text = attrs.pop("exceptional")
            if exc_text not in ("yes", "no"):
                raise ParseError(lineno, f"exceptional must be yes or no, got {exc_text!r}")
            if "genus" in attrs:
                if attrs.pop("genus") != "0":
                    raise ParseError(lineno, f"curve {cid!r} has genus != 0, unsupported")
            c = _coeff(lineno, attrs.pop("coeff")) if "coeff" in attrs else Fraction(0)
            if attrs:
                raise ParseError(lineno, f"unknown attribute {sorted(attrs)[0]!r}")
            curves.append(Vertex(cid, self_int, exc_text == "yes"))
            seen[cid] = lineno
            coeff[cid] = c
        elif kind == "meet":
            if len(tokens) != 4:
                raise ParseError(lineno, "meet takes exactly: meet <id> <id> <mult>")
            u, w = tokens[1], tokens[2]
            if u == w:
                raise ParseError(lineno, f"self-loop at {u!r}")
            try:
                mult = int(tokens[3])
            except ValueError:
                raise ParseError(lineno, "multiplicity must be an integer")
            if mult <= 0:
                raise ParseError(lineno, "multiplicity must be positive")
            key = (u, w) if u <= w else (w, u)
            if key in edge_lines:
                raise ParseError(
                    lineno, f"duplicate meet {u} {w} (first on line {edge_lines[key]})"
                )
            edge_lines[key] = lineno
            edges.append((u, w, mult))
        elif kind == "boundary":
            if len(tokens) < 2:
                raise ParseError(lineno, "boundary needs a name")
            name = tokens[1]
            if name in boundaries:
                raise ParseError(lineno, f"duplicate boundary {name!r}")
            vec = {}
            for tok in tokens[2:]:
                if "=" not in tok:
                    raise ParseError(lineno, f"expected id=<q>, got {tok!r}")
                vid, val = tok.split("=", 1)
                if vid in vec:
                    raise ParseError(lineno, f"repeated vertex {vid!r} in boundary")
                vec[vid] = _coeff(lineno, val)
            boundaries[name] = vec
            boundary_lines[name] = lineno
        elif kind == "prime":
            if len(tokens) < 2:
                raise ParseError(lineno, "prime needs at least one value")
            for tok in tokens[1:]:
                try:
                    p = int(tok)
                except ValueError:
                    raise ParseError(lineno, f"prime must be an integer, got {tok!r}")
                if not is_prime(p):
                    raise ParseError(lineno, f"{p} is not prime")
                primes.append(p)
        else:
            raise ParseError(lineno, f"unknown declaration {kind!r}")

    for u, w, _m in edges:
        if u not in seen or w not in seen:
            msg = f"edge {u!r}-{w!r} references an unknown vertex"
            raise ParseError(edge_lines[(u, w) if u <= w else (w, u)], msg)
    for name, vec in boundaries.items():
        for vid in vec:
            if vid not in seen:
                msg = f"boundary {name!r} references unknown vertex {vid!r}"
                raise ParseError(boundary_lines[name], msg)
    graph = DualGraph(curves, edges)
    return GermFile(graph=graph, coeff=coeff, boundaries=boundaries, primes=primes)


def render_germ(germ: GermFile) -> str:
    """Canonical text: curves, meets, boundaries, primes, each sorted."""
    lines = []
    for vid in germ.graph.ids:
        if type(vid) is not str or vid.split() != [vid] or "#" in vid or "=" in vid:
            raise ValueError(f"curve id {vid!r} cannot be written to a germ file")
        v = germ.graph.vertex(vid)
        exc = "yes" if v.exceptional else "no"
        lines.append(
            f"curve {vid} self={v.self_int} exceptional={exc} "
            f"coeff={format_rational(germ.coeff.get(vid, Fraction(0)))}"
        )
    for u, w, mult in germ.graph.edges():
        lines.append(f"meet {u} {w} {mult}")
    for name in sorted(germ.boundaries):
        if type(name) is not str or name.split() != [name] or "#" in name:
            raise ValueError(f"boundary name {name!r} cannot be written to a germ file")
        vec = germ.boundaries[name]
        entries = [f"{vid}={format_rational(vec[vid])}" for vid in sorted(vec) if vec[vid] != 0]
        lines.append(" ".join(["boundary", name, *entries]))
    if germ.primes:
        lines.append("prime " + " ".join(str(p) for p in germ.primes))
    return "\n".join(lines) + "\n"
