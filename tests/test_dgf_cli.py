import json
from fractions import Fraction as F

import pytest

from frsurf import corpus
from frsurf.cli import main
from frsurf.corpus import random_corpus
from frsurf.dgf import GermFile, ParseError, parse_germ, render_germ
from frsurf.graphs import DualGraph, Vertex, is_negative_definite
from kernel_reference import ade_graph, affine_ade_graph, blowup_chain, intersection_matrix

A1_TAIL = """\
# A1 germ with a transversal carrier
curve E self=-2 exceptional=yes coeff=0
curve L self=0 exceptional=no coeff=0
meet E L 1
prime 7 11
"""

FORK6 = """\
curve C self=-2 exceptional=yes coeff=11/12
curve A self=-2 exceptional=yes coeff=1/2
curve B self=-3 exceptional=yes coeff=2/3
curve D self=-3 exceptional=yes coeff=2/3
curve L self=0 exceptional=no coeff=0
meet C A 1
meet C B 1
meet C D 1
meet D L 1
"""


def test_parse_round_trip():
    germ = parse_germ(A1_TAIL)
    assert germ.graph.ids == ("E", "L")
    assert germ.primes == [7, 11]
    canonical = render_germ(germ)
    assert render_germ(parse_germ(canonical)) == canonical
    # a named boundary that is zero everywhere renders with no entries
    zero = parse_germ(A1_TAIL + "boundary z E=0\n")
    assert zero.boundaries == {"z": {"E": 0}}
    canonical = render_germ(zero)
    assert "boundary z\n" in canonical
    assert render_germ(parse_germ(canonical)) == canonical
    assert parse_germ(canonical).pair("z").coeff == {"E": 0, "L": 0}


def test_render_parse_round_trip_over_corpus():
    for pair in random_corpus(1, 300):
        graph = pair.graph
        back = parse_germ(render_germ(GermFile(graph=graph, coeff=pair.coeff)))
        assert [back.graph.vertex(v) for v in back.graph.ids] == [graph.vertex(v) for v in graph.ids]
        assert back.graph.edges() == graph.edges()
        assert back.pair().coeff == pair.coeff


@pytest.mark.parametrize("vid", ["a#b", "a b", "", "a=b"])
def test_render_refuses_curve_ids_the_grammar_cannot_carry(vid):
    graph = DualGraph([Vertex(vid, -2, True), Vertex("L", 0, False)], [(vid, "L", 1)])
    with pytest.raises(ValueError, match=f"curve id {vid!r} cannot be written"):
        render_germ(GermFile(graph=graph, coeff={}))


def test_render_refuses_curve_ids_that_are_not_strings():
    # "curve 1 ..." would parse back with the id "1", not 1
    with pytest.raises(ValueError, match="curve id 1 cannot be written"):
        render_germ(GermFile(graph=DualGraph([Vertex(1, -2, True)]), coeff={}))


@pytest.mark.parametrize("name", ["a#b", "a b", ""])
def test_render_refuses_boundary_names_the_grammar_cannot_carry(name):
    germ = parse_germ(A1_TAIL)
    germ.boundaries[name] = {"E": F(1, 2)}
    with pytest.raises(ValueError, match=f"boundary name {name!r} cannot be written"):
        render_germ(germ)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("curve E self=-2 exceptional=yes coeff=3", "outside", 1),
        ("curve E self=-2 exceptional=yes\nmeet E E 1", "self-loop", 2),
        ("curve E self=-2 exceptional=yes\ncurve E self=-1 exceptional=no", "duplicate", 2),
        ("curve E self=-2 exceptional=yes coeff=0.5", "fraction", 1),
        ("curve E self=-2 exceptional=yes genus=1", "genus != 0", 1),
        ("curve E self=-2 exceptional=yes genus=x", "genus must be an integer", 1),
        ("wobble E", "unknown", 1),
        ("curve E self=-2 exceptional=yes\nmeet E Z 1", "unknown", 2),
        ("prime 9", "not prime", 1),
        # no boundary line could name this curve: "a=b=1/2" is not a fraction
        ("curve E self=-2 exceptional=yes\ncurve a=b self=-2 exceptional=yes", "contains '='", 2),
        (
            "curve E self=-2 exceptional=yes\ncurve L self=0 exceptional=no\n"
            "meet E L 1\n# a comment\nboundary half E=1/2 Z=1/2\nprime 7",
            "unknown vertex 'Z'",
            5,
        ),
    ]
    for text, needle, line in cases:
        with pytest.raises(ParseError) as err:
            parse_germ(text)
        assert needle in str(err.value)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}: ")
    # genus is read as an integer, as self= is
    assert parse_germ("curve E self=-2 exceptional=yes genus=00").graph.ids == ("E",)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_discrepancies_a3(tmp_path, capsys):
    f = tmp_path / "a3.dgf"
    f.write_text(
        "curve a self=-2 exceptional=yes\n"
        "curve b self=-2 exceptional=yes\n"
        "curve c self=-2 exceptional=yes\n"
        "meet a b 1\nmeet b c 1\n"
    )
    code, out = _run(capsys, "discrepancies", str(f))
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split()[1:] == ["0", "0"]


def test_cli_classify_json(tmp_path, capsys):
    f = tmp_path / "a1.dgf"
    f.write_text(A1_TAIL)
    code, out = _run(capsys, "classify", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "canonical"
    assert payload["b"] == {"E": "0"}


def test_cli_negdef(tmp_path, capsys):
    f = tmp_path / "bad.dgf"
    f.write_text(
        "curve a self=-2 exceptional=yes\ncurve b self=-2 exceptional=yes\nmeet a b 2\n"
    )
    code, out = _run(capsys, "negdef", str(f))
    assert code == 1
    assert "no" in out

    # Differential: the CLI's answer against the dense test on the exceptional curves.
    kinds = [("A", n) for n in range(1, 7)] + [("D", 4), ("D", 5), ("D", 6)]
    kinds += [("E", 6), ("E", 7), ("E", 8)]
    graphs = [ade_graph(k, n) for k, n in kinds] + [affine_ade_graph(k, n) for k, n in kinds]
    graphs += [blowup_chain(n) for n in range(1, 6)]
    graphs += [pair.graph for pair in random_corpus(1, 200)]
    f = tmp_path / "g.dgf"
    answers = set()
    for g in graphs:
        f.write_text(render_germ(GermFile(graph=g, coeff={})))
        ok = is_negative_definite(intersection_matrix(g, g.exceptional_ids))
        answers.add(ok)
        code, out = _run(capsys, "negdef", str(f))
        assert (code, out) == (0 if ok else 1, f"negative definite: {'yes' if ok else 'no'}\n")
        code, out = _run(capsys, "negdef", str(f), "--format", "json")
        assert (code, json.loads(out)) == (0 if ok else 1, {"negative_definite": ok})
    assert answers == {True, False}


def test_cli_complement(tmp_path, capsys):
    f = tmp_path / "a1.dgf"
    f.write_text(A1_TAIL)
    code, out = _run(capsys, "complement", str(f))
    assert code == 0
    assert "N=2" in out and "E = 1/2" in out and "L = 1" in out

    code, out = _run(capsys, "complement", str(f), "--n", "1")
    assert code == 1
    assert "no complement" in out


def test_cli_bstar(tmp_path, capsys):
    f = tmp_path / "fork6.dgf"
    f.write_text(FORK6)
    code, out = _run(capsys, "bstar", str(f), "--p", "7", "--e-max", "6")
    assert code == 0
    assert "case: plt" in out and "level: 6" in out
    assert "diff at center: 1/2, 2/3, 4/5" in out

    code, out = _run(capsys, "bstar", str(f), "--p", "7,11", "--e-max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["p"] for r in payload["results"]] == [7, 11]
    assert all(r["ok"] for r in payload["results"])


def test_cli_bstar_uses_prime_line(tmp_path, capsys):
    f = tmp_path / "a1.dgf"
    f.write_text(A1_TAIL)
    code, out = _run(capsys, "bstar", str(f), "--e-max", "4")
    assert code == 0
    assert "p=7" in out and "p=11" in out


def test_cli_fregular(capsys):
    code, out = _run(
        capsys, "fregular-p1", "--coeffs", "1/2,2/3,5/6", "--p", "7"
    )
    assert code == 1
    assert "not regular" in out

    code, out = _run(
        capsys, "fregular-p1", "--coeffs", "2/5,2/3,5/6", "--p", "7", "--e-max", "2"
    )
    assert code == 0
    assert "regular" in out

    code, out = _run(
        capsys, "fregular-p1", "--coeffs", "2/5,2/3,5/6", "--p", "7", "--e-max", "1"
    )
    assert code == 2
    assert "inconclusive" in out


def test_cli_fregular_ignores_zero_coefficients(capsys):
    for fmt in ("text", "json"):
        argv = ["--p", "7", "--e-max", "6", "--format", fmt]
        with_zero = _run(capsys, "fregular-p1", "--coeffs", "1/2,2/3,0,3/4", *argv)
        assert with_zero == _run(capsys, "fregular-p1", "--coeffs", "1/2,2/3,3/4", *argv)
        with_zero = _run(capsys, "fregular-p1", "--coeffs", "0,1/2,0,0,2/3", *argv)
        assert with_zero == _run(capsys, "fregular-p1", "--coeffs", "1/2,2/3", *argv)
    code, out = _run(capsys, "fregular-p1", "--coeffs", "1/2,1/2,1/2,1/2", "--p", "7")
    assert code == 3 and "at most three marked points" in out


def test_cli_rejects_e_max_below_one(tmp_path, capsys):
    code, out = _run(
        capsys, "fregular-p1", "--coeffs", "1/2,2/3,3/4", "--p", "7", "--e-max", "0"
    )
    assert code == 3
    assert out.startswith("error:")
    f = tmp_path / "a1.dgf"
    f.write_text(A1_TAIL)
    code, out = _run(capsys, "bstar", str(f), "--p", "7", "--e-max", "-2")
    assert code == 3
    assert "failed at stage hypotheses" in out


def test_cli_hara(capsys):
    code, out = _run(capsys, "hara", "--p", "7,11,13,17,19,23,29")
    assert code == 0
    rows = [l for l in out.splitlines() if l and l.split()[0] in ("D1", "D2")]
    assert len(rows) == 9
    assert all(l.rstrip().endswith("yes") for l in rows)


def test_cli_named_boundary(tmp_path, capsys):
    f = tmp_path / "a1.dgf"
    f.write_text(
        "curve E self=-2 exceptional=yes coeff=0\n"
        "curve L self=0 exceptional=no coeff=0\n"
        "meet E L 1\n"
        "boundary Bc E=1/2 L=1\n"
    )
    code, out = _run(capsys, "classify", str(f))
    assert code == 0 and "canonical" in out
    code, out = _run(capsys, "classify", str(f), "--boundary", "Bc")
    assert code == 0 and "plt" in out
    code, out = _run(capsys, "classify", str(f), "--boundary", "nope")
    assert code == 3


def test_cli_lucas(capsys):
    code, out = _run(capsys, "lucas", "--n", "40", "--k", "26", "--p", "7")
    assert code == 0
    assert out.strip().endswith("= 3")


def test_cli_input_errors(tmp_path, capsys):
    f = tmp_path / "bad.dgf"
    f.write_text("curve E self=-2 exceptional=maybe\n")
    code, out = _run(capsys, "classify", str(f))
    assert code == 3
    assert "error" in out

    code, out = _run(capsys, "fregular-p1", "--coeffs", "0.5", "--p", "7")
    assert code == 3

    # usage errors (argparse reports them on stderr), --p without a prime
    # (an empty --p too, which never falls back to a default or the file),
    # and unreadable germ paths
    germ = str(tmp_path / "bad.dgf")
    for argv in (
        ["bstar", germ, "--e-max", "x"],
        ["classify", germ, "--format", "yaml"],
        ["frobnicate"],
        ["fregular-p1", "--coeffs", "1/2"],
        ["fregular-p1", "--coeffs", "1/2", "--p", ","],
        ["hara", "--p", ","],
        ["hara", "--p", ""],
        ["bstar", str(corpus.GERMS / "a1_tail.dgf"), "--p", ""],  # the file names primes
        # levels that are never searched
        ["complement", str(corpus.GERMS / "a1_tail.dgf"), "--n", "5"],
        ["complement", str(corpus.GERMS / "a1_tail.dgf"), "--n", "0"],
        ["classify", str(tmp_path / "missing.dgf")],
        ["classify", str(tmp_path)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert "error: " in captured.out + captured.err, argv
    code, out = _run(capsys, "--help")
    assert code == 0 and "usage: frsurf" in out


def test_families_are_the_shipped_canonical_germ_files():
    # FAMILIES names every shipped file, and each file is in canonical form
    assert sorted(f"{name}.dgf" for name in corpus.FAMILIES) == sorted(
        p.name for p in corpus.GERMS.glob("*.dgf")
    )
    for name in corpus.FAMILIES:
        text = (corpus.GERMS / f"{name}.dgf").read_text()
        assert render_germ(parse_germ(text)) == text, name


def test_random_corpus_reads_the_families_once(monkeypatch):
    calls = []
    real = corpus.deliberate_families

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(corpus, "deliberate_families", counting)
    assert len(corpus.random_corpus(1, 100)) == 100
    assert len(calls) == 1


def test_shipped_germs_run_through_the_cli(tmp_path, capsys):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "germs"
    code, out = _run(capsys, "bstar", str(root / "a2_tail.dgf"))
    assert code == 0
    assert "p=7: certificate" in out and "p=11: certificate" in out


def test_cli_determinism(tmp_path, capsys):
    f = tmp_path / "fork6.dgf"
    f.write_text(FORK6)
    outs = set()
    for _ in range(2):
        code, out = _run(capsys, "bstar", str(f), "--p", "11,7", "--e-max", "6")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
