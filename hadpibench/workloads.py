"""The three workloads: seeded operations with exact checks.

A workload turns a seed and a number of rounds into a list of `Op`s.  A
round holds a fixed mix of operation kinds, so every run weighs the kinds
the same way.  `Op.run` is the timed part; `Op.check` runs
after it and raises `Mismatch` on a wrong output, otherwise it returns
the normal-form words the operation produced and a text rendering of its
whole output (for the digests).

Library functions are always reached through their module
(`synthesis.normal_form_word`, not a bound name), so the traced run sees
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

from hadpi import cli, lang, linalg, synthesis, translate, words

import inputs


class Mismatch(Exception):
    """An operation completed but its output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], str]]
    in_gens: int = 0  # generators of the input word, for nf_growth


def gens_in(text: str) -> int:
    """Generator count of a printed word (`eps` has none)."""
    return sum(1 for tok in text.split()[1:] if tok != "eps")


# ---------------------------------------------------------------------------
# synth: matrix -> canonical word, then word_sem(nf) == m

# (n, generators) of the seeded cells; one op per cell per round
SYNTH_CELLS = [(8, 8 * m) for m in range(3, 9)] + [(12, 12 * m) for m in range(3, 9)] + [
    (16, 48),
    (16, 64),
]
# Heavy tail: n=16 words at 6n..7n generators.  Their cost ranges over two
# orders of magnitude between seeds, so a seeded draw of a few of them
# would decide a run's totals; this fixed corpus keeps the tail in every
# run at the same cost.  Each entry is (n, generators, s): the word drawn
# from Random(f"heavy-{n}-{generators}-{s}"), where s is the first index
# whose normal form has at least 1500 and 2500 generators.
SYNTH_HEAVY = [(16, 96, 5), (16, 112, 28)]


def _synth_op(w) -> Op:
    m = words.word_sem(w)

    def run():
        nf = synthesis.normal_form_word(m)
        if words.word_sem(nf) != m:
            raise Mismatch("word_sem(normal_form_word(m)) != m")
        return nf

    def check(nf):
        text = words.format_word(nf)
        return [text], text

    return Op("synth", run, check, len(w.gens))


def heavy_words(size: str):
    if size != "full":
        return []
    return [
        inputs.rand_word(random.Random(f"heavy-{n}-{length}-{s}"), n, length)
        for n, length, s in SYNTH_HEAVY
    ]


def synth_ops(rng: random.Random, size: str, rounds: int) -> list[Op]:
    ops = [
        _synth_op(inputs.rand_word(rng, n, g if size == "full" else n))
        for _ in range(rounds)
        for n, g in SYNTH_CELLS
    ]
    return ops + [_synth_op(w) for w in heavy_words(size)]


# ---------------------------------------------------------------------------
# translate: one verified translation in the form `hadpi translate` runs it


def _words_to_qpi(w) -> Op:
    ref = words.word_sem(w)

    def run():
        c = translate.t_q(w)
        m = lang.sem(c, lang.nsum(w.n))
        translate.TranslationReport(w, c, words.word_sem(w), m)
        return c, m

    def check(out):
        c, m = out
        if m != ref:
            raise Mismatch("sem(t_q(w)) != word_sem(w)")
        return [], lang.format_term(c)

    return Op("words->qpi", run, check)


def _qpi_to_words(c, b) -> Op:
    ref = lang.sem(c, b)

    def run():
        w = translate.wsem(c, b)
        wm = words.word_sem(w)
        translate.TranslationReport(c, w, lang.sem(c, b), wm)
        return w, wm

    def check(out):
        w, wm = out
        if wm != ref:
            raise Mismatch("word_sem(wsem(c)) != sem(c)")
        text = words.format_word(w)
        return [text], text

    return Op("qpi->words", run, check)


def _qpi_to_hpi(c, b) -> Op:
    ref = linalg.ExactMatrix.identity(1).direct_sum(lang.sem(c, b))
    src = lang.Sum(lang.ONE, b)

    def run():
        h = translate.t_h(c, b)
        hm = lang.sem(h, src, "hpi")
        translate.TranslationReport(c, h, lang.sem(c, b), hm, padding=1)
        return h, hm

    def check(out):
        h, hm = out
        if hm != ref:
            raise Mismatch("sem(t_h(c)) != I1 (+) sem(c)")
        return [], lang.format_term(h)

    return Op("qpi->hpi", run, check)


TRANSLATE_NS = {"full": range(4, 13), "tiny": range(2, 5)}
QUBITS3 = inputs.register(3)


def translate_ops(rng: random.Random, size: str, rounds: int) -> list[Op]:
    ops = []
    for _ in range(rounds):
        ops += [_words_to_qpi(inputs.rand_word(rng, n, 2 * n)) for n in TRANSLATE_NS[size]]
        for _ in range(3):
            ops.append(_qpi_to_words(inputs.rand_circuit(rng, 3, 10, 6), QUBITS3))
        for _ in range(3):
            ops.append(_qpi_to_hpi(inputs.rand_circuit(rng, 3, 5, 3), QUBITS3))
    return ops


# ---------------------------------------------------------------------------
# equiv-cli: in-process `hadpi.cli.main(argv)` on small inputs, dim <= 8


def call_main(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, argv: list[str], expect: Callable[[int, str, str], list[str]],
            stdin: str = "") -> Op:
    def check(res):
        code, out, err = res
        return expect(code, out, err), f"{code}\n{out}\n{err}"

    return Op(kind, lambda: call_main(argv, stdin), check)


def _lines(code: int, out: str, want_code: int, what: str) -> list[str]:
    if code != want_code:
        raise Mismatch(f"{what}: exit {code}, expected {want_code}")
    return out.splitlines()


def _equiv_op(c, b, dst, same: bool) -> Op:
    fmt = lang.format_term
    other = lang.seqs(c, lang.inverse(c, b), c) if same else lang.seqs(
        c, inputs.non_identity(dst)
    )
    verdict = "EQUIV" if same else "DISTINCT"

    def expect(code, out, err):
        lines = _lines(code, out, 0 if same else 1, "equiv")
        if len(lines) != 3 or lines[2] != verdict:
            raise Mismatch(f"equiv: expected {verdict}")
        lhs, rhs = lines[0].removeprefix("lhs "), lines[1].removeprefix("rhs ")
        if (lhs == rhs) != same:
            raise Mismatch("equiv: normal forms contradict the verdict")
        return [lhs] if same else [lhs, rhs]

    return _cli_op("equiv", ["equiv", fmt(c), fmt(other)], expect)


def _check_op(c, b, dst) -> Op:
    want = f"src {lang.format_type(b)}\ndst {lang.format_type(dst)}\n"

    def expect(code, out, err):
        _lines(code, out, 0, "check")
        if out != want:
            raise Mismatch("check: wrong types")
        return []

    return _cli_op("check", ["check", lang.format_term(c)], expect)


def _sem_op(c, b) -> Op:
    want = linalg.format_matrix(words.word_sem(translate.wsem(c, b))) + "\n"

    def expect(code, out, err):
        _lines(code, out, 0, "sem")
        if out != want:
            raise Mismatch("sem: matrix differs from word_sem(wsem(c))")
        return []

    argv = ["sem", lang.format_term(c), "--in-type", lang.format_type(b)]
    return _cli_op("sem", argv, expect)


def _normalize_op(w) -> Op:
    ref = words.word_sem(w)

    def expect(code, out, err):
        lines = _lines(code, out, 0, "normalize")
        if len(lines) != 1 or words.word_sem(words.parse_word(lines[0])) != ref:
            raise Mismatch("normalize: word_sem(nf) != word_sem(w)")
        return lines

    argv = ["normalize", words.format_word(w), "--kind", "word"]
    op = _cli_op("normalize", argv, expect)
    return Op(op.kind, op.run, op.check, len(w.gens))


def _derive_op(text: str, steps: int) -> Op:
    want = f"ok: {steps} steps verified, final word matches\n"

    def expect(code, out, err):
        _lines(code, out, 0, "derive-check")
        if out != want:
            raise Mismatch("derive-check: unexpected report")
        return []

    # a derivation is a multi-line file; it arrives on stdin, as `-` allows
    return _cli_op("derive-check", ["derive-check", "-"], expect, stdin=text)


def _relations_op(n: int) -> Op:
    want = []
    skipped = 0
    for rel in words.CATALOG:
        if len(rel.formals) > n:
            want.append(f"SKIP {rel.id} needs n >= {len(rel.formals)}")
            skipped += 1
        else:
            want.append(f"PASS {rel.id} assignments={math.perm(n, len(rel.formals))}")
    total = len(words.CATALOG)
    want.append(
        f"{total - skipped} of {total} relations verified (n={n}, {skipped} skipped, 0 failed)"
    )

    def expect(code, out, err):
        if _lines(code, out, 0, "relations-verify") != want:
            raise Mismatch("relations-verify: unexpected report")
        return []

    return _cli_op("relations-verify", ["relations-verify", "--n", str(n)], expect)


# ops of each kind in one round of the equiv-cli mix
EQUIV_MIX = {"equiv-same": 20, "equiv-diff": 12, "check": 16, "sem": 16,
             "normalize": 16, "derive": 14, "relations": 1}


def equiv_ops(rng: random.Random, size: str, rounds: int) -> list[Op]:
    depth = 4 if size == "full" else 2
    ops = []
    for _ in range(rounds):
        for kind, count in EQUIV_MIX.items():
            for _ in range(count if size == "full" else 1):
                ops.append(_equiv_mix_op(rng, kind, depth))
    return ops


def _equiv_mix_op(rng: random.Random, kind: str, depth: int) -> Op:
    if kind == "relations":
        return _relations_op(4)
    if kind == "normalize":
        n = rng.randint(3, 8)
        return _normalize_op(inputs.rand_word(rng, n, rng.randint(2 * n, 4 * n)))
    if kind == "derive":
        text, steps = inputs.rand_derivation(rng, words.CATALOG, rng.randint(4, 6), rng.randint(1, 3))
        return _derive_op(text, steps)
    b = inputs.rand_type(rng, 8)
    c, dst = inputs.rand_term(rng, b, depth)
    if kind == "sem":
        return _sem_op(c, b)
    # the pin makes the source type inferable, so no --in-type is passed
    c = lang.seqs(inputs.pin(b), c)
    if kind == "check":
        return _check_op(c, b, dst)
    return _equiv_op(c, b, dst, same=(kind == "equiv-same"))


# ---------------------------------------------------------------------------
# real `hadpi` subprocesses: argv, stdin and a check of (code, stdout)


def spawn_batch(name: str, rng: random.Random) -> list[tuple[list[str], str, Callable]]:
    batch = []
    for _ in range(4):
        if name == "synth":
            m = words.word_sem(inputs.rand_word(rng, 8, 32))

            def ok(code, out, m=m):
                return code == 0 and words.word_sem(words.parse_word(out)) == m

            batch.append((["synth", "-"], linalg.format_matrix(m), ok))
        elif name == "translate":
            w = inputs.rand_word(rng, 4, 8)

            def ok(code, out, w=w):
                lines = out.splitlines()
                return (
                    code == 0
                    and lines[-1] == "verified: semantics preserved"
                    and lang.sem(lang.parse_term(lines[0]), lang.nsum(4)) == words.word_sem(w)
                )

            batch.append((["translate", words.format_word(w), "--from", "words", "--to", "qpi"], "", ok))
        else:
            b = inputs.rand_type(rng, 4)
            c = inputs.rand_term(rng, b, 2)[0]
            again = lang.seqs(c, lang.inverse(c, b), c)
            argv = ["equiv", lang.format_term(c), lang.format_term(again),
                    "--in-type", lang.format_type(b)]
            batch.append((argv, "", lambda code, out: code == 0 and out.endswith("EQUIV\n")))
    return batch


WORKLOADS = {"synth": synth_ops, "translate": translate_ops, "equiv-cli": equiv_ops}
