"""The two equivalence gates: every CLI answer and every corpus pipeline
outcome, each hashed by its script.  A change that moves either value
changes an output, and has to say why."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CLI_LINE = "5f5e12141b79bc9d7e44d41b78a85734caaf94cf30e12d91674eb9c5b60c9b9f exit0:140 exit1:2 exit2:4"
CORPUS_SHA = "39b379d43bc021f7222bda93fa12c2ce69de36ee35215c16f5d4824760fba890"
# the other seeds `corpus_digest.py` prints by default
MORE_CORPUS_SHAS = {
    1: "fb8ff80f49603522396b60e0c2c26e377d94e5abda42f6698b9916b9137cbd4b",
    2: "70c9e0d6230132b47c1699562ea5a19d9d0a69ee5526ef6a1a3ca93f4a4fba01",
    3: "40b87694757badbeb3bdeb264516e1a2f40df3615378dbf515fdd7585705dc84",
}


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


@pytest.mark.parametrize("seed", sorted(MORE_CORPUS_SHAS))
def test_corpus_digest_more_seeds(seed):
    sha, _tally = _load("corpus_digest").digest(seed, 400, [7, 11, 13])
    assert sha == MORE_CORPUS_SHAS[seed]
