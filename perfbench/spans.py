"""Span recorder for the traced run.

``SpanRecorder.patch`` wraps public frsurf entry points wherever the
package binds them (``frsurf.graphs.classify``, ``frsurf.complements.classify``,
``frsurf.bstar.classify``, ...), so calls between modules are caught too.
Each call records a span: name, op id, parent span, start and end, kept in
memory and written out at the end.  A span's self time is its duration
minus the time its child spans cover; everything runs on one thread, so
spans nest.  The untraced run never imports this module's wrappers.

Run as a script, it traces one ``frsurf.cli`` command in a fresh process
and writes that process's spans to a file:

    PYTHONPATH=src python perfbench/spans.py OUT.tsv bstar germs/a1_tail.dgf --p 7,11
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from time import perf_counter_ns

# Levels of the complement search, in the order frsurf.complements tries them.
LEVELS = (1, 2, 3, 4, 6)


def grid_points(pair, cert) -> int:
    """Candidates the lexicographic grid search visits, counted from outside.

    For each level searched, the product of the 1/N grids over the
    non-exceptional vertices; at the accepted level, only up to and
    including the accepted assignment.
    """
    graph = pair.graph
    nonexc = [v for v in graph.ids if not graph.vertex(v).exceptional]
    total = 0
    for level in LEVELS:
        lows = [math.ceil(level * pair.coeff[v]) for v in nonexc]
        sizes = [level - low + 1 for low in lows]
        if cert is not None and cert.level == level:
            pos = 0
            for v, low, size in zip(nonexc, lows, sizes):
                pos = pos * size + int(cert.coeffs[v] * level) - low
            return total + pos + 1
        total += math.prod(sizes)
    return total


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, function, note): note(args, kwargs, result) is stored with the
# span when the call returns.
TARGETS = (
    ("graphs", "classify", None),
    ("graphs", "pullback_coefficients", None),
    ("graphs", "is_negative_definite", None),
    ("graphs", "dot_against_exceptionals", None),
    (
        "complements",
        "minimal_complement",
        lambda a, k, r: [grid_points(_arg(a, k, 0, "pair"), r), r is not None],
    ),
    ("complements", "verify_complement", None),
    ("bstar", "gfr_certificate", None),
    ("bstar", "reverify_certificate", None),
    ("bstar", "construct_bstar_nonplt", None),
    ("bstar", "verify_pfreg", None),
    ("fedder", "is_globally_F_regular", None),
    ("fedder", "test_at", lambda a, k, r: _arg(a, k, 2, "e")),
    ("fedder", "verify_witness", None),
    ("padic", "exists_dominated_in_interval", lambda a, k, r: _arg(a, k, 4, "e")),
    ("padic", "binom_mod_p", None),
    ("dgf", "parse_germ", None),
)

# Index of each field in a span record.
NAME, OP, PARENT, START, END, NOTE = range(6)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _patch_everywhere(self, target, wrapper, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, target))

    def patch(self, extra=()) -> None:
        """Wrap every TARGETS function in every loaded frsurf module, and
        each (module, attribute, span name) in ``extra``."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "frsurf" or n.startswith("frsurf.")
        ]
        for module, fn_name, note in TARGETS:
            target = getattr(importlib.import_module("frsurf." + module), fn_name)
            wrapper = self._wrap(f"{module}.{fn_name}", target, note)
            self._patch_everywhere(target, wrapper, modules)
        for mod, attr, name in extra:
            target = getattr(mod, attr)
            self._patch_everywhere(target, self._wrap(name, target, None), [mod])

    def unpatch(self) -> None:
        for mod, attr, target in reversed(self._patched):
            setattr(mod, attr, target)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\top\tparent\tstart_ns\tend_ns\tnote\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[OP]}\t{s[PARENT]}\t{s[START]}\t{s[END]}\t{json.dumps(s[NOTE])}\n")

    def load(self, path: str, op: int) -> None:
        """Append the spans another process dumped, as spans of ``op``."""
        base = len(self.spans)
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                name, _op, parent, start, end, note = line.rstrip("\n").split("\t")
                parent = int(parent)
                self.spans.append(
                    [name, op, parent + base if parent >= 0 else -1, int(start), int(end), json.loads(note)]
                )

    def totals(self, ops) -> dict[str, dict]:
        """Per span name over the spans of ``ops``: calls, self seconds and notes."""
        cover = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                cover[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s[OP] not in ops:
                continue
            t = out.setdefault(s[NAME], {"calls": 0, "self_ns": 0, "notes": []})
            t["calls"] += 1
            t["self_ns"] += s[END] - s[START] - cover[i]
            if s[NOTE] is not None:
                t["notes"].append(s[NOTE])
        return out


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    import frsurf.cli

    recorder = SpanRecorder()
    recorder.op = 0
    recorder.patch()
    try:
        return frsurf.cli.main(cli_args)
    finally:
        recorder.unpatch()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
