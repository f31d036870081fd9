"""The benchmark names frsurf entry points and pipeline stages; each must exist,
and the spanned entry points must be the ones the pipeline calls."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from frsurf import bstar, corpus
from frsurf.cli import _PIPELINE_EXITS

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    spans = _load("spans")
    assert spans.TARGETS
    for module, name, _note in spans.TARGETS:
        fn = getattr(importlib.import_module("frsurf." + module), name, None)
        assert callable(fn), f"frsurf.{module}.{name}"


def test_every_raised_stage_is_known_to_the_benchmark_and_the_cli():
    stages = _load("workloads").PIPELINE_STAGES
    raised = []
    for path in sorted((ROOT / "src" / "frsurf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "PipelineError":
                where = f"{path.name}:{node.lineno}"
                # a stage or kind that is no string literal cannot be checked: it fails here
                stage, kind = (ast.literal_eval(arg) for arg in node.args[:2])
                assert stage in stages, (where, stage)
                assert kind in _PIPELINE_EXITS, (where, kind)
                raised.append(stage)
    assert "chain-extension" in raised


# Spanned helpers that no pipeline stage calls any more; the benchmark keeps
# naming them until its spans are brought up to date with the program.
UNREACHED = {
    "graphs.is_negative_definite",
    "bstar.verify_pfreg",
    "padic.exists_dominated_in_interval",
    "padic.binom_mod_p",  # verify_witness asks only Lucas' zero test
}


def test_trace_targets_record_calls():
    # The benchmark's own recorder, over what a corpus_pipeline op runs on
    # the families: the certificate at three primes, its JSON round trip and
    # the re-verification of the loaded copy.
    spans = _load("spans")
    recorder = spans.SpanRecorder()
    recorder.patch()
    try:
        for name in corpus.FAMILIES:
            pair = corpus.family(name)
            for p in (7, 11, 13):
                cert = bstar.gfr_certificate(pair, p, 6)
                text = json.dumps(bstar.certificate_to_payload(cert))
                loaded = bstar.certificate_from_payload(json.loads(text))
                assert bstar.reverify_certificate(pair, loaded) == [], (name, p)
    finally:
        recorder.unpatch()
    targets = {f"{module}.{name}" for module, name, _note in spans.TARGETS}
    assert targets - {span[spans.NAME] for span in recorder.spans} <= UNREACHED
