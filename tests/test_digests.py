"""The two equivalence gates: every CLI answer and every corpus pipeline
outcome, each hashed by its script.  A change that moves either value
changes an output, and has to say why."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CLI_LINE = "5f5e12141b79bc9d7e44d41b78a85734caaf94cf30e12d91674eb9c5b60c9b9f exit0:140 exit1:2 exit2:4"
CORPUS_SHA = "39b379d43bc021f7222bda93fa12c2ce69de36ee35215c16f5d4824760fba890"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest(monkeypatch, capsys):
    monkeypatch.chdir(SCRIPTS)  # restored afterwards; the script changes directory
    _load("cli_digest").main()
    assert capsys.readouterr().out == CLI_LINE + "\n"


def test_corpus_digest():
    sha, _tally = _load("corpus_digest").digest(20240817, 400, [7, 11, 13])
    assert sha == CORPUS_SHA
