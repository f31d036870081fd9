import dataclasses
from fractions import Fraction as F

import pytest

from frsurf.bstar import (
    GfrCertificate,
    PipelineError,
    _center_and_chain,
    certificate_from_payload,
    certificate_to_payload,
    construct_bstar_nonplt,
    construct_bstar_plt,
    gfr_certificate,
    reverify_certificate,
    verify_pfreg,
)
from frsurf.cli import main
from frsurf.complements import ComplementCertificate, minimal_complement
from frsurf.corpus import FAMILIES, deliberate_families, family, random_corpus
from frsurf.dgf import GermFile, parse_germ, render_germ
from frsurf.graphs import DualGraph, LogPair, PairingLattice, Vertex, classify
from kernel_reference import fraction_dots

N6_DIFF_LISTS = [
    sorted([F(2, 5), F(2, 3), F(5, 6)]),
    sorted([F(1, 2), F(1, 2), F(5, 6)]),
    sorted([F(1, 2), F(2, 3), F(4, 5)]),
]
N4_DIFF_LISTS = [
    sorted([F(1, 3), F(3, 4), F(3, 4)]),
    sorted([F(1, 2), F(2, 3), F(3, 4)]),
]
N3_DIFF_LIST = sorted([F(1, 2), F(2, 3), F(2, 3)])
N2_DIFF_LIST = sorted([F(1, 2), F(1, 2), F(1, 2)])


def _exc(*ids):
    return [Vertex(v, -2, True) for v in ids]


def test_center_and_chain_walks_and_extends():
    # x - a - b - y: a two-curve chain, extended at its smaller end a first
    g = DualGraph(
        [*_exc("a", "b"), Vertex("x", 0, False), Vertex("y", 0, False)],
        [("x", "a", 1), ("a", "b", 1), ("b", "y", 1)],
    )
    bc = {"a": 1, "b": 1, "x": F(1, 2), "y": F(1, 2)}
    assert _center_and_chain(LogPair(g, {}), bc) == ["b", "a", "x"]
    # x outside Supp(Bc - B): the smaller end cannot extend, the other end can
    assert _center_and_chain(LogPair(g, {"x": F(1, 2)}), bc) == ["a", "b", "y"]
    # a one-curve chain, extended through an exceptional interior curve
    one = {"a": 1, "b": F(1, 2), "x": 0, "y": F(1, 2)}
    assert _center_and_chain(LogPair(g, {}), one) == ["a", "b", "y"]
    pair = family("plt_fork_level6")
    assert _center_and_chain(pair, minimal_complement(pair).coeffs) == ["C", "D", "L"]


def test_center_and_chain_extension_is_lexicographically_least():
    g = DualGraph(
        [*_exc("C"), Vertex("L", 0, False), Vertex("M", 0, False)],
        [("C", "L", 1), ("C", "M", 1)],
    )
    bc = {"C": 1, "L": F(1, 2), "M": F(1, 2)}
    assert _center_and_chain(LogPair(g, {}), bc) == ["C", "L"]
    assert _center_and_chain(LogPair(g, {"L": F(1, 2)}), bc) == ["C", "M"]


@pytest.mark.parametrize(
    "edges, ones, needle",
    [
        ([("a", "b"), ("b", "c"), ("a", "c")], "abc", "not a simple chain: a, b, c"),
        ([("a", "b"), ("b", "c")], "ac", "not a simple chain: a, c"),
        # edge count and end count fit a chain; only the walk sees the triangle
        ([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")], "abcxy", "not a simple chain"),
        ([("a", "b")], "", "no coefficient-1 vertex"),
    ],
)
def test_center_and_chain_rejects_a_locus_that_is_no_simple_chain(edges, ones, needle):
    ids = sorted({v for edge in edges for v in edge})
    g = DualGraph(_exc(*ids), [(u, w, 1) for u, w in edges])
    bc = {v: F(1) if v in ones else F(1, 2) for v in ids}
    with pytest.raises(PipelineError) as err:
        _center_and_chain(LogPair(g, {}), bc)
    assert (err.value.stage, err.value.kind) == ("reduced-chain", "structure")
    assert needle in str(err.value)


def test_construct_bstar_plt_surgery_values():
    bc = {"C": F(1), "X": F(5, 6), "Y": F(1, 2), "Z": F(2, 3)}
    out = construct_bstar_plt(bc, 6, ["X", "Y"])
    assert out == {"C": 1, "X": F(4, 5), "Y": F(2, 5), "Z": F(2, 3)}
    out4 = construct_bstar_plt({"W": F(1, 2)}, 4, ["W"])
    assert out4 == {"W": F(1, 3)}
    with pytest.raises(PipelineError):
        construct_bstar_plt({"W": F(1, 5)}, 6, ["W"])  # not on the 1/6 grid
    with pytest.raises(PipelineError):
        construct_bstar_plt({"W": F(1, 2)}, 1, ["W"])
    # an empty chain needs no surgery, whatever the level
    assert construct_bstar_plt(bc, 1, ()) == bc


def test_surgery_preserves_anti_nef_on_families():
    for pair, level in (
        (family("plt_fork_level2"), 2),
        (family("plt_fork_level3"), 3),
        (family("plt_fork_level4"), 4),
        (family("plt_fork_level6"), 6),
    ):
        cert = minimal_complement(pair)
        assert cert.level == level
        center, *gamma0 = _center_and_chain(pair, cert.coeffs)
        assert center == "C"
        bstar = construct_bstar_plt(cert.coeffs, level, gamma0)
        dots = fraction_dots(pair.graph, bstar)
        assert all(v <= 0 for v in dots.values())
        # equality exactly at interior chain curves with a transverse tail
        interior = [v for v in gamma0 if pair.graph.vertex(v).exceptional]
        for v in interior:
            assert dots[v] == 0
        # the surgered boundary still dominates B
        for v in pair.graph.ids:
            assert bstar[v] >= pair.coeff[v]


def test_nonplt_construction_fork():
    pair = family("nonplt_fork")
    cert = minimal_complement(pair)
    assert not cert.plt_case
    surgery = construct_bstar_nonplt(pair, cert.coeffs)
    assert surgery.center == "C"
    assert surgery.gamma_prime == ("E3", "L3")
    assert surgery.epsilon == F(1, 2)
    assert surgery.bstar["E3"] == F(3, 4)
    assert surgery.bstar["L3"] == F(1, 2)
    dots = fraction_dots(pair.graph, surgery.bsharp)
    assert all(v <= 0 for v in dots.values())
    cls = classify(pair.with_coeff(surgery.bstar))
    assert cls.is_plt
    # the doubled mix sits exactly on a constraint boundary
    double = {
        v: cert.coeffs[v] + 2 * surgery.epsilon * (surgery.bsharp[v] - cert.coeffs[v])
        for v in pair.graph.ids
    }
    on_domination = any(double[v] == pair.coeff[v] for v in pair.graph.ids)
    plt_boundary = not classify(pair.with_coeff(double)).is_plt
    assert on_domination or plt_boundary


def test_nonplt_construction_line():
    pair = family("nonplt_line")
    cert = minimal_complement(pair)
    surgery = construct_bstar_nonplt(pair, cert.coeffs)
    # chain is L1 - E - L2 with both ends non-exceptional; the center is the
    # end opposite the chosen tail
    assert surgery.center == "L2"
    assert surgery.gamma_prime == ("E", "L1")
    assert classify(pair.with_coeff(surgery.bstar)).is_plt


def test_nonplt_bsharp_outside_unit_interval():
    # random_corpus(20240817, ...)[91]: Bc = 1 everywhere, and Bsharp is
    # -1/2 on E2, which is no boundary but still fixes the epsilon slopes
    pair = parse_germ(
        """\
curve E1 self=-3 exceptional=yes coeff=5/6
curve E2 self=-1 exceptional=yes coeff=0
curve L1 self=0 exceptional=no coeff=0
curve L2 self=0 exceptional=no coeff=3/4
meet E1 E2 1
meet E1 L2 1
meet E2 L1 1
"""
    ).pair()
    cert = minimal_complement(pair)
    assert cert.level == 1 and not cert.plt_case
    surgery = construct_bstar_nonplt(pair, cert.coeffs)
    assert surgery.bsharp["E2"] == F(-1, 2)
    assert classify(pair.with_coeff(surgery.bstar)).is_plt
    full = gfr_certificate(pair, 7)
    assert (full.case, full.level) == ("non_plt", 1)
    assert reverify_certificate(pair, full) == []


def test_nonplt_surgery_solves_bc_not_again(monkeypatch):
    # Bc is its own pullback, and lattice monotonicity bounds the mix by
    # dominance alone: one solve, Bsharp on the chain's exceptional curves.
    calls = []
    real = PairingLattice.solve

    def recording(lattice, coeff):
        calls.append(lattice.unknowns)
        return real(lattice, coeff)

    monkeypatch.setattr(PairingLattice, "solve", recording)
    for pair in (family("nonplt_fork"), family("nonplt_line")):
        cert = minimal_complement(pair)
        calls.clear()
        surgery = construct_bstar_nonplt(pair, cert.coeffs)
        graph = pair.graph
        on_chain = tuple(sorted(v for v in surgery.gamma_prime if graph.vertex(v).exceptional))
        assert calls == [on_chain]


def test_nonplt_mix_is_bounded_by_dominance_alone():
    # The facts that make dominance B* >= B the only bound on the mix, on
    # every non-plt minimal complement of the families and three corpora.
    pairs = [pair for _name, pair in deliberate_families()]
    for seed in (1, 2, 3):
        pairs += random_corpus(seed, 200)
    seen = 0
    for pair in pairs:
        comp = minimal_complement(pair)
        if comp is None or comp.plt_case:
            continue
        seen += 1
        graph, b, bc = pair.graph, pair.coeff, comp.coeffs
        surgery = construct_bstar_nonplt(pair, bc)
        bsharp = surgery.bsharp
        # (1) Bsharp <= Bc everywhere: no coefficient grows
        assert all(bsharp[v] <= bc[v] for v in graph.ids)
        # (2) K + Bsharp is anti-nef
        assert all(v <= 0 for v in fraction_dots(graph, bsharp).values())
        # (3) the pullback of Bsharp is <= Bc, and (4) < Bc where Bc = 1
        for j, value in graph.lattice(graph.exceptional_ids).solve(bsharp).items():
            assert value < bc[j] if bc[j] == 1 else value <= bc[j], j
        # (5) Bsharp < Bc only on gamma', where Bc > B: eps_max > 0
        lowered = {v for v in graph.ids if bsharp[v] < bc[v]}
        assert lowered <= set(surgery.gamma_prime)
        assert all(bc[v] > b[v] for v in lowered)
        assert 0 < surgery.epsilon <= F(1, 2)
        assert all(b[v] <= surgery.bstar[v] <= bc[v] for v in graph.ids)
    assert seen > 150


def test_verify_pfreg_clauses():
    pair = family("plt_fork_level3")
    cert = minimal_complement(pair)
    center, *gamma0 = _center_and_chain(pair, cert.coeffs)
    bstar = construct_bstar_plt(cert.coeffs, cert.level, gamma0)
    anchors, verdict = verify_pfreg(pair, bstar, center, 7, 4)
    assert sorted(val for _a, val in anchors) == N3_DIFF_LIST
    assert verdict.is_regular


def test_verify_pfreg_rejects_a_different_that_is_no_p1_pair():
    g = DualGraph(
        [Vertex("C", -1, True), *(Vertex(x, 0, False) for x in "PQRS")],
        [("C", x, 1) for x in "PQRS"],
    )
    pair = LogPair(g, {})
    four = {"C": F(1), **dict.fromkeys("PQRS", F(1, 2))}
    one = {"C": F(1), "P": F(1), "Q": F(1, 2), "R": 0, "S": 0}
    for bstar, needle in ((four, "at most three marked points"), (one, "outside [0, 1)")):
        with pytest.raises(PipelineError) as err:
            verify_pfreg(pair, bstar, "C", 7, 4)
        assert (err.value.stage, err.value.kind) == ("different", "structure")
        assert needle in str(err.value)


# C - W - L with Bc - B supported on C alone.
CWL = """\
curve C self=-2 exceptional=yes
curve W self=-2 exceptional=yes coeff=1/2
curve L self=0 exceptional=no coeff=1/2
meet C W 1
meet W L 1
"""


@pytest.mark.parametrize(
    "bc, stage, kind, needle",
    [
        # two disjoint coefficient-1 curves (formerly the "plt-center" stage)
        ({"C": F(1), "W": F(1, 2), "L": F(1)}, "reduced-chain", "structure", "not a simple chain"),
        # an exceptional center that no chain leaves (formerly "chain-search")
        ({"C": F(1), "W": F(1, 2), "L": F(1, 2)}, "chain-extension", "hypothesis", "no non-exc"),
    ],
)
def test_gfr_plt_center_comes_from_the_reduced_chain(
    monkeypatch, tmp_path, capsys, bc, stage, kind, needle
):
    comp = ComplementCertificate(level=2, coeffs=bc, plt_case=True)
    monkeypatch.setattr("frsurf.bstar.minimal_complement", lambda pair: comp)
    with pytest.raises(PipelineError) as err:
        gfr_certificate(parse_germ(CWL).pair(), 7)
    assert (err.value.stage, err.value.kind) == (stage, kind)
    assert needle in str(err.value)
    f = tmp_path / "cwl.dgf"
    f.write_text(CWL)
    assert main(["bstar", str(f), "--p", "7"]) == 3
    assert f"p=7: failed at stage {stage}: [{stage}] " in capsys.readouterr().out


def test_gfr_maps_inconclusive_fedder():
    # the p=7 witness of plt_fork_level6 needs e = 3
    with pytest.raises(PipelineError) as err:
        gfr_certificate(family("plt_fork_level6"), 7, e_max=2)
    assert (err.value.stage, err.value.kind) == ("fedder", "inconclusive")


def test_gfr_rejects_broken_sandwich(monkeypatch):
    real = construct_bstar_plt

    def raised(bc, level, gamma0):
        return {**real(bc, level, gamma0), "A": F(5, 6)}

    monkeypatch.setattr("frsurf.bstar.construct_bstar_plt", raised)
    with pytest.raises(PipelineError) as err:
        gfr_certificate(family("plt_fork_level6"), 7, 6)
    assert (err.value.stage, err.value.kind) == ("pfreg", "structure")
    assert "sandwich Bc >= B* >= B fails at A" in str(err.value)


def test_gfr_certificates_on_families():
    diffs = {}
    for name, pair in deliberate_families():
        cert = gfr_certificate(pair, 7, e_max=6)
        assert cert.fedder.is_regular, name
        assert reverify_certificate(pair, cert) == [], name
        diffs[name] = sorted(v for v in cert.diff if v != 0)
    assert diffs["plt_fork_level6"] in N6_DIFF_LISTS
    assert diffs["plt_fork_level4"] in N4_DIFF_LISTS
    assert diffs["plt_fork_level3"] == N3_DIFF_LIST
    assert diffs["plt_fork_level2"] == N2_DIFF_LIST


def test_gfr_rejects_small_prime():
    with pytest.raises(PipelineError) as err:
        gfr_certificate(family("a1_tail"), 5)
    assert err.value.stage == "hypotheses"
    with pytest.raises(PipelineError):
        gfr_certificate(family("a1_tail"), 9)


def test_gfr_rejects_non_standard():
    g = DualGraph(
        [Vertex("E", -2, True), Vertex("L", 0, False)], [("E", "L", 1)]
    )
    with pytest.raises(PipelineError) as err:
        gfr_certificate(LogPair(g, {"L": F(3, 5)}), 7)
    assert err.value.kind == "hypothesis"


def test_gfr_reports_absent_complement():
    g = DualGraph([Vertex("E", -2, True)])
    with pytest.raises(PipelineError) as err:
        gfr_certificate(LogPair(g, {}), 7)
    assert err.value.stage == "complement"
    assert err.value.kind == "search"


def _tamperings(cert, other):
    """(field, value) edits of the plt_fork_level6 certificate `cert` at p = 7
    that `reverify_certificate` must report; `other` is its certificate at 11."""
    return (
        ("fedder", other.fedder),
        ("prime", 13),
        ("prime", 9),
        ("e_max", 0),
        ("e_max", cert.fedder.certificate.e - 1),
        ("center", "Z"),
        ("center", "A"),
        ("bstar", {**cert.bstar, "L": F(3, 2)}),
        ("bstar", {**cert.bstar, "A": F(1)}),
        # wrongly typed fields are reported, not raised
        ("prime", "7"),
        ("prime", True),
        ("level", "6"),
        ("level", 2.0),
        ("e_max", "6"),
        ("e_max", -2),
        ("center", ["A"]),
        ("gamma0", (["A"],)),
        ("gamma0", "DL"),
        ("gamma_prime", (["A"],)),
        ("bstar", {**cert.bstar, "A": "x"}),
        ("bstar", {**cert.bstar, "C": 1.0}),
        ("bc", {**cert.bc, "A": None}),
        ("bc", {**cert.bc, "C": "1"}),
        ("bc", {**cert.bc, "C": True}),
        ("bc", None),
        ("fedder", None),
        # a different or an anchor equal to the recomputed one, but inexact
        ("diff", (0.5, *cert.diff[1:])),
        ("diff_anchors", ((("A", 0.0), F(1, 2)), *cert.diff_anchors[1:])),
        ("diff_anchors", ((("A", False), F(1, 2)), *cert.diff_anchors[1:])),
        ("diff_anchors", ((("A", 0), 0.5), *cert.diff_anchors[1:])),
        *(
            ("fedder", dataclasses.replace(cert.fedder, certificate=value))
            for value in ({"p": 7}, (7, 2), "x")
        ),
    )


def test_reverify_detects_tampering():
    pair = family("plt_fork_level6")
    cert = gfr_certificate(pair, 7, e_max=6)
    assert reverify_certificate(pair, cert) == []
    tampered = GfrCertificate(
        case=cert.case,
        level=cert.level,
        center=cert.center,
        gamma0=cert.gamma0,
        gamma_prime=cert.gamma_prime,
        bc=cert.bc,
        bstar={**cert.bstar, "A": F(5, 6)},
        epsilon=cert.epsilon,
        diff=cert.diff,
        diff_anchors=cert.diff_anchors,
        fedder=cert.fedder,
        prime=cert.prime,
        e_max=cert.e_max,
    )
    assert reverify_certificate(pair, tampered) != []
    # a witness must be for the certificate's own prime and within e_max
    other = gfr_certificate(pair, 11, e_max=6)
    assert other.fedder.certificate.p == 11
    for field, value in _tamperings(cert, other):
        mutated = dataclasses.replace(cert, **{field: value})
        assert reverify_certificate(pair, mutated) != [], (field, value)
    payload = {**certificate_to_payload(cert), "gamma0": [["A"]]}
    assert reverify_certificate(pair, certificate_from_payload(payload)) != []
    # a JSON string or null is no chain: "DL" is not read as the chain D, L
    assert cert.gamma0 == ("D", "L")
    for chain in ("DL", None):
        payload = {**certificate_to_payload(cert), "gamma0": chain}
        assert reverify_certificate(pair, certificate_from_payload(payload)) == [
            f"gamma0 {chain!r} is not a tuple of vertex names"
        ]
    # a different with a coefficient 1 or a fourth marked point is reported, not raised
    fork2 = family("plt_fork_level2")
    cert2 = gfr_certificate(fork2, 7, e_max=6)
    mutated = dataclasses.replace(cert2, bstar={**cert2.bstar, "D": F(1)})
    assert any(
        "not a P1 pair" in problem for problem in reverify_certificate(fork2, mutated)
    )
    # a toric verdict carries no prime of its own; the certificate's must be valid
    toric = gfr_certificate(family("a1_tail"), 7)
    assert toric.fedder.toric
    assert reverify_certificate(family("a1_tail"), dataclasses.replace(toric, prime=9)) != []
    for value in ("6", 0, -2, 6.0):
        mutated = dataclasses.replace(toric, e_max=value)
        assert reverify_certificate(family("a1_tail"), mutated) != [], value
    # the recorded case, chains, epsilon and anchors must be the ones that built B*,
    # and a malformed witness is reported, not raised
    nonplt = family("nonplt_fork")
    for germ, c, extra in (
        (nonplt, gfr_certificate(nonplt, 7, e_max=6), (
            ("case", "foo"), ("epsilon", None), ("epsilon", "1/2"), ("epsilon", 0.5),
            ("gamma0", ("E1",)), ("gamma_prime", ()), ("gamma_prime", ("E3",)),
            # the walk must be a path from the center: no repeat, no jump
            ("gamma_prime", ("E3", "E3", "L3")), ("gamma_prime", ("L3", "E3")))),
        (pair, cert, (("epsilon", F(1, 2)), ("gamma0", ("D",)), ("gamma_prime", ("L",)))),
    ):
        fc = c.fedder.certificate
        anchors = ((("Z", 0), c.diff_anchors[0][1]), *c.diff_anchors[1:])
        for field, value in (
            ("epsilon", F(7)),
            ("gamma0", ("Q",)),
            ("gamma_prime", ("Q",)),
            ("diff_anchors", anchors),
            ("fedder", dataclasses.replace(c.fedder, certificate=dataclasses.replace(fc, a=fc.a[:2]))),
            ("fedder", dataclasses.replace(
                c.fedder, certificate=dataclasses.replace(fc, witness=fc.witness[:1]))),
            *(
                ("fedder", dataclasses.replace(
                    c.fedder, certificate=dataclasses.replace(fc, **{name: value})))
                for name, value in (
                    ("e", "1"), ("p", 7.0), ("a", list(fc.a)), ("a", (*fc.a[:2], "0")),
                    ("witness", (*fc.witness[:1], 1.0)),
                )
            ),
            *extra,
        ):
            mutated = dataclasses.replace(c, **{field: value})
            assert reverify_certificate(germ, mutated) != [], (field, value)
        wrong_prime = dataclasses.replace(
            c, prime=9, fedder=dataclasses.replace(c.fedder, certificate=dataclasses.replace(fc, p=9))
        )
        assert reverify_certificate(germ, wrong_prime) == ["characteristic 9 is not a prime > 5"]


def test_certificate_serialization_round_trip():
    import json

    pair = family("plt_fork_level6")
    cert = gfr_certificate(pair, 7, e_max=6)
    payload = json.loads(json.dumps(certificate_to_payload(cert)))
    restored = certificate_from_payload(payload)
    assert restored == cert
    assert reverify_certificate(pair, restored) == []
    # a string where JSON should carry a number is reported, not raised
    restored = certificate_from_payload({**payload, "p": "7"})
    assert reverify_certificate(pair, restored) == ["prime '7' is not an integer"]


def test_mistyped_verdict_fields_are_reported():
    import json

    for name, key, value, problem in (
        ("a1_tail", "toric", "x", "verdict toric='x' is not a bool"),
        ("a1_tail", "reason", 5, "verdict reason 5 is not a string"),
        ("plt_fork_level6", "toric", 1, "verdict toric=1 is not a bool"),
        ("plt_fork_level6", "e_max_tried", "x", "verdict e_tried='x' is not a positive integer"),
    ):
        pair = family(name)
        payload = json.loads(json.dumps(certificate_to_payload(gfr_certificate(pair, 7, e_max=6))))
        edited = {**payload, "fedder": {**payload["fedder"], key: value}}
        assert reverify_certificate(pair, certificate_from_payload(edited)) == [problem], (name, key)
    # a stored witness that is no witness object is reported, not raised
    pair = family("plt_fork_level6")
    cert = gfr_certificate(pair, 7, e_max=6)
    for value in ({"p": 7}, (7, 2), "x"):
        mutated = dataclasses.replace(cert, fedder=dataclasses.replace(cert.fedder, certificate=value))
        assert reverify_certificate(pair, mutated) == [f"stored witness {value!r} is not a witness"]


def _payload_edits(node):
    """Copies of a JSON value with one type-changing edit each: an int made a
    float, a string put in a list, or one list entry dropped or repeated."""
    if isinstance(node, bool):
        return
    if isinstance(node, int):
        yield float(node)
    elif isinstance(node, str):
        yield [node]
    elif isinstance(node, list):
        for i, entry in enumerate(node):
            yield node[:i] + node[i + 1:]
            yield node[:i + 1] + node[i:]
            for edited in _payload_edits(entry):
                yield [*node[:i], edited, *node[i + 1:]]
    elif isinstance(node, dict):
        for key, value in node.items():
            for edited in _payload_edits(value):
                yield {**node, key: edited}


def test_accepted_payload_edits_reserialize_byte_for_byte():
    """Each edit is unreadable, rejected on a freshly parsed pair, or changes
    nothing the certificate says: it writes the original JSON back."""
    import json

    for name in FAMILIES:
        original = json.dumps(certificate_to_payload(gfr_certificate(family(name), 7, e_max=6)))
        for payload in _payload_edits(json.loads(original)):
            try:
                edited = certificate_from_payload(payload)
            except ValueError:
                continue
            if reverify_certificate(family(name), edited) == []:
                assert json.dumps(certificate_to_payload(edited)) == original, (name, payload)


def test_certificate_from_payload_names_a_broken_field():
    import json

    cert = gfr_certificate(family("nonplt_fork"), 7, e_max=6)
    payload = json.loads(json.dumps(certificate_to_payload(cert)))
    some = min(payload["bc"])
    missing_p = {k: v for k, v in payload.items() if k != "p"}
    for field, broken in (
        ("bc", {**payload, "bc": None}),
        ("bstar", {**payload, "bstar": []}),
        ("bc", {**payload, "bc": {**payload["bc"], some: 0.5}}),
        ("epsilon", {**payload, "epsilon": 0.5}),
        ("diff", {**payload, "diff": None}),
        ("diff_anchors", {**payload, "diff_anchors": [1]}),
        ("fedder", {**payload, "fedder": None}),
        ("p", missing_p),
    ):
        with pytest.raises(ValueError, match=f"certificate field '{field}'"):
            certificate_from_payload(broken)


def test_gfr_rejects_e_max_below_one():
    for e_max in (0, -2):
        with pytest.raises(PipelineError) as err:
            gfr_certificate(family("a1_tail"), 7, e_max=e_max)
        assert (err.value.stage, err.value.kind) == ("hypotheses", "hypothesis")


def test_nonplt_diff_shape():
    cert = gfr_certificate(family("nonplt_fork"), 7, e_max=6)
    values = sorted(v for v in cert.diff if v != 0)
    assert len(values) in (2, 3)
    if len(values) == 3:
        assert values[0] <= F(1, 2) and values[1] <= F(1, 2) and values[2] < 1
    else:
        assert all(v < 1 for v in values)


def _outcome(pair, p):
    try:
        return gfr_certificate(pair, p, e_max=6)
    except PipelineError as exc:
        return (exc.stage, exc.kind, str(exc))


def test_primes_share_the_prime_free_half(monkeypatch):
    searched = []

    def counting(pair):
        searched.append(pair)
        return minimal_complement(pair)

    monkeypatch.setattr("frsurf.bstar.minimal_complement", counting)
    pairs = [pair for _name, pair in deliberate_families()] + random_corpus(1, 60)
    kinds = set()
    for pair in pairs:
        text = render_germ(GermFile(graph=pair.graph, coeff=dict(pair.coeff)))
        failures = set()
        for p in (7, 11, 13):
            got = _outcome(pair, p)
            # the same as on a freshly parsed pair that sees this prime alone
            assert got == _outcome(parse_germ(text).pair(), p), (text, p)
            if isinstance(got, GfrCertificate):
                kinds.add(got.case)
                # each certificate owns its maps: editing one leaves the next prime's alone
                got.bc[got.center] = got.bstar[got.center] = F(0)
            else:
                kinds.add(got[0])
                failures.add(got)
        # a failure of the prime-free half reads the same at every prime
        assert len(failures) <= 1, (text, failures)
        assert sum(seen is pair for seen in searched) == 1, text
    assert {"plt", "non_plt", "complement"} <= kinds


def test_reverify_never_runs_the_prime_free_half(monkeypatch):
    cases = []
    for pair in (family("plt_fork_level6"), family("nonplt_fork")):
        cert = gfr_certificate(pair, 7, e_max=6)
        assert pair._surgery is not None
        payload = certificate_to_payload(cert)
        off_center = min(v for v in cert.bc if v != cert.center)
        for field in ("bc", "bstar"):
            edited = dict(payload[field])
            edited[off_center] = "1/7" if edited[off_center] != "1/7" else "1/11"
            cases.append((pair, certificate_from_payload({**payload, field: edited})))
            assert reverify_certificate(*cases[-1]) != [], field
        cases.append((pair, cert))
    expected = [reverify_certificate(pair, cert) for pair, cert in cases]

    def unreachable(*args):
        raise AssertionError("reverify_certificate runs the prime-free half")

    monkeypatch.setattr("frsurf.bstar.surgery", unreachable)
    monkeypatch.setattr("frsurf.bstar.minimal_complement", unreachable)
    assert [reverify_certificate(pair, cert) for pair, cert in cases] == expected
    assert expected[2] == expected[5] == []


def test_reverify_memo_still_reports_every_tampering():
    # each edit follows an accepted check of the same content, so the kept
    # verdict accepts the content the certificate had before its edit
    pair = family("plt_fork_level6")
    other = gfr_certificate(pair, 11, e_max=6)
    cert = gfr_certificate(pair, 7, e_max=6)
    for field, value in (("bstar", {**cert.bstar, "A": F(5, 6)}), *_tamperings(cert, other)):
        fresh = gfr_certificate(pair, 7, e_max=6)
        assert reverify_certificate(pair, fresh) == []
        if field in ("bc", "bstar") and isinstance(value, dict):
            # the same certificate object, its map edited in place
            getattr(fresh, field).clear()
            getattr(fresh, field).update(value)
            mutated = fresh
        else:
            mutated = dataclasses.replace(fresh, **{field: value})
        assert reverify_certificate(pair, mutated) != [], (field, value)


def test_reverify_memo_rejects_list_content_and_returns_fresh_lists():
    pair = family("nonplt_fork")
    cert = gfr_certificate(pair, 7, e_max=6)
    assert reverify_certificate(pair, cert) == []
    (anchor, value), *rest = cert.diff_anchors
    wrong_diff, wrong_anchor, wrong_case = [*cert.diff[:-1], F(1, 97)], [anchor[0], -1], ["plt"]
    for field, listed, inner, index, right in (
        ("diff", wrong_diff, wrong_diff, -1, cert.diff[-1]),
        ("diff_anchors", ((wrong_anchor, value), *rest), wrong_anchor, 1, anchor[1]),
        ("case", wrong_case, wrong_case, 0, cert.case),
    ):
        # each list follows an accepting check: unequal content, checked afresh
        mutated = dataclasses.replace(cert, **{field: listed})
        assert reverify_certificate(pair, mutated) != [], field
        # set in place to the accepted content, it still reads as a rejection
        inner[index] = right
        assert reverify_certificate(pair, mutated) != [], field
        assert reverify_certificate(pair, cert) == [], field
    # each check returns a new list, so a caller's edit stays its own
    tampered = dataclasses.replace(cert, bstar={**cert.bstar, cert.center: F(1, 2)})
    first = reverify_certificate(pair, tampered)
    second = reverify_certificate(pair, tampered)
    assert first and first == second and first is not second
    second.append("edited by the caller")
    assert reverify_certificate(pair, tampered) == first


def test_reverify_checks_prime_free_content_once_per_germ(monkeypatch):
    import json

    from frsurf import bstar

    calls = []
    real = bstar._prime_free_problems

    def counting(pair, cert):
        calls.append(cert.prime)
        return real(pair, cert)

    monkeypatch.setattr(bstar, "_prime_free_problems", counting)
    for name in ("plt_fork_level6", "nonplt_fork", "a1_tail"):
        pair = family(name)
        for p in (7, 11, 13):
            cert = gfr_certificate(pair, p, e_max=6)
            restored = certificate_from_payload(json.loads(json.dumps(certificate_to_payload(cert))))
            assert reverify_certificate(pair, restored) == []
        # the construction's check, made before any prime is set, serves every
        # certificate: they differ in their prime and witness only
        assert calls == [None], name
        calls.clear()
        # other content is checked afresh each time it arrives
        tampered = dataclasses.replace(cert, bstar={**cert.bstar, cert.center: F(1, 2)})
        assert reverify_certificate(pair, tampered) == reverify_certificate(pair, tampered) != []
        assert calls == [13, 13], name
        calls.clear()
        # a pair that built no certificate checks the built one once
        fresh = parse_germ(render_germ(GermFile(graph=pair.graph, coeff=dict(pair.coeff)))).pair()
        assert reverify_certificate(fresh, cert) == []
        assert fresh._surgery is None
        assert calls == [13], name
        calls.clear()


def test_reverify_reports_a_pair_that_is_not_negative_definite():
    pair = family("a1_tail")
    cert = gfr_certificate(pair, 7)
    graph = pair.graph
    flat = DualGraph(
        [Vertex(v, 0 if v == "E" else graph.vertex(v).self_int, graph.vertex(v).exceptional) for v in graph.ids],
        graph.edges(),
    )
    problems = reverify_certificate(LogPair(flat, pair.coeff), cert)
    assert any(problem.startswith("classification of the pair with B* failed") for problem in problems)


def test_a_kept_failure_is_raised_with_a_fresh_traceback():
    import traceback

    pair = LogPair(DualGraph([Vertex("E", -2, True)]), {})
    depths = []
    for _ in range(5):
        with pytest.raises(PipelineError) as err:
            gfr_certificate(pair, 7)
        depths.append(len(traceback.extract_tb(err.value.__traceback__)))
    assert depths[0] == depths[4]
