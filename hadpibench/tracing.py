"""Span tracing of hadpi's layers, applied from outside the package.

`Tracer.install()` replaces each layer's public entry points with wrappers
that record a span (name, start, end, parent span, op id) and a few
counters.  A function is patched under every name that binds it,
including names that importing modules bound (`hadpi.linalg.reduce_nums`,
`hadpi.synthesis.reduce_nums`, ...), so no call path escapes.  Spans are
kept in flat arrays in memory and written out by `dump`; only calls made
inside a benchmark op are recorded.  `uninstall()` restores every name.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from hadpi import _core, cli, lang, linalg, synthesis, translate, words

# layer name -> [(span name, function name, modules or classes binding it)]
ENTRY_POINTS = {
    "_core": [
        ("core.reduce_nums", "reduce_nums", (_core, linalg, synthesis)),
        ("core.mat_mul_nums", "mat_mul_nums", (_core, linalg)),
        ("core.kron_nums", "kron_nums", (_core, linalg)),
    ],
    "ring": [
        ("ring.parse_ringint", "parse_ringint", (linalg,)),
        ("ring.format_ringint", "format_ringint", (linalg,)),
    ],
    "linalg": [
        ("linalg.matmul", "matmul", (linalg.ExactMatrix,)),
        ("linalg.matmul", "__matmul__", (linalg.ExactMatrix,)),
        ("linalg.tensor", "tensor", (linalg.ExactMatrix,)),
        ("linalg.direct_sum", "direct_sum", (linalg.ExactMatrix,)),
        ("linalg.apply_generator_rows", "apply_generator_rows", (linalg, words, synthesis)),
        ("linalg.level_scan", "_level_unchecked", (linalg, synthesis)),
        ("linalg.m_level_embed", "m_level_embed", (linalg, words)),
        ("linalg.parse_matrix", "parse_matrix", (linalg, cli)),
        ("linalg.format_matrix", "format_matrix", (linalg, cli)),
    ],
    "synthesis": [
        ("synthesis.synthesize", "synthesize", (synthesis, cli)),
        ("synthesis.normal_form_word", "normal_form_word", (synthesis, cli)),
        ("synthesis.hpermute", "hpermute", (synthesis, translate)),
        ("synthesis.permutation_matrix", "permutation_matrix", (synthesis, lang)),
    ],
    "words": [
        ("words.word_sem", "word_sem", (words, cli)),
        ("words.parse_word", "parse_word", (words, cli)),
        ("words.format_word", "format_word", (words, cli)),
        ("words.apply_step", "apply_step", (words, cli)),
        ("words.verify_relation", "verify_relation", (words, cli)),
        ("words.parse_derivation", "parse_derivation", (words, cli)),
    ],
    "lang": [
        ("lang.sem", "sem", (lang, cli, translate)),
        ("lang.typecheck", "typecheck", (lang, cli, translate)),
        ("lang.parse_term", "parse_term", (lang, cli)),
        ("lang.parse_type", "parse_type", (lang, cli)),
        ("lang.infer_source", "infer_source", (lang, cli)),
        ("lang.format_term", "format_term", (lang, cli)),
    ],
    "translate": [
        ("translate.t_q", "t_q", (translate, cli)),
        ("translate.wsem", "wsem", (translate, cli)),
        ("translate.t_h", "t_h", (translate, cli)),
        ("translate.report", "__post_init__", (translate.TranslationReport,)),
    ],
    "cli": [
        ("cli.main", "main", (cli,)),
    ],
}
OP_SPAN = "bench.op"


def _spine_leaves(c) -> int:
    count, stack = 0, [c]
    while stack:
        node = stack.pop()
        if isinstance(node, lang.Seq):
            stack.append(node.fst)
            stack.append(node.snd)
        else:
            count += 1
    return count


def _count_reduce(counts, args, out):
    passes = args[0] - out[0]  # rt2 factors stripped: k in minus k out
    counts["core.reduce_nums.passes"] += passes
    counts["core.reduce_nums.useful"] += passes > 0


def _count_matmul(counts, args, out):
    counts["core.mat_mul_nums.madds"] += args[0] ** 3


def _count_leaves(counts, args, out):
    counts["translate.t_q.leaves"] += _spine_leaves(out)


def _count_syllables(counts, args, out):
    counts["synthesis.syllables"] += len(out.syllables)


def _count_gens(counts, args, out):
    counts["words.word_sem.gens"] += len(args[0].gens)


# span name -> counter hook run after the call, outside its span
COUNTERS = {
    "core.reduce_nums": _count_reduce,
    "core.mat_mul_nums": _count_matmul,
    "translate.t_q": _count_leaves,
    "synthesis.synthesize": _count_syllables,
    "words.word_sem": _count_gens,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Run fn as op op_id under a root span; spans nest below it."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self._op_id = -1

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        count = COUNTERS.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        wrapped: dict[int, object] = {}
        for entries in ENTRY_POINTS.values():
            for span, attr, owners in entries:
                for owner in owners:
                    fn = owner.__dict__[attr]
                    # one wrapper per function object, shared by its bindings
                    key = id(fn)
                    if key not in wrapped:
                        wrapped[key] = self._wrap(span, fn)
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped[key])
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Header line (JSON) followed by the raw span arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d")]
        head = dict(header, names=self.names, count=len(self.start), fields=fields)
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for field, _ in fields:
                getattr(self, field).tofile(fh)


def load_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a file written by `Tracer.dump` back into (header, arrays)."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        cols = {}
        for field, code in head["fields"]:
            col = array(code)
            col.fromfile(fh, head["count"])
            cols[field] = col
    return head, cols
