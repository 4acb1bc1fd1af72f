"""Command-line front end for the exact toolchain.

Every command is a pure function from its inputs to stdout text plus an
exit code: 0 success or equivalent, 1 domain failure (type error,
non-orthogonal matrix, distinct semantics, failed verification), 2 usage
or parse error.  Inputs are taken inline, from a file path, or from
stdin when the argument is "-".
"""

import argparse
import functools
import math
import os
import sys

from .lang import (
    BudgetError,
    LangError,
    ONE,
    Sum,
    Term,
    ValueType,
    format_term,
    format_type,
    hdim,
    infer_source,
    lower,
    nsum,
    parse_term,
    parse_type,
    sem,
    term_equivalence,
    typecheck,
)
from .linalg import LinAlgError, format_matrix, parse_matrix
from .ring import parse_natural
from .synthesis import (
    SynthesisError,
    _trace_word,
    format_trace,
    normal_form_word,
    program_normal_form,
    synthesize,
    word_equivalence,
)
from .translate import TranslateError, TranslationReport, t_h, t_h_lower, t_q
from .words import (
    CATALOG,
    Word,
    WordError,
    format_word,
    parse_derivation,
    parse_word,
    program_form,
    program_matrix,
    replay,
    verify_relation,
    word_program,
    word_sem,
)

# re-exported unused: hadpibench/tracing.py patches these bindings
from .translate import wsem  # noqa: F401
from .words import apply_step  # noqa: F401


class UsageError(ValueError):
    """Bad invocation or unparseable input; maps to exit code 2."""


def _read_input(value: str) -> str:
    try:
        if value == "-":
            return sys.stdin.read()
        if not os.path.isfile(value):  # False for a name too long or otherwise unusable
            return value
        with open(value) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = "stdin" if value == "-" else value
        raise UsageError(f"cannot read {name}: {exc}") from None


def _parsed(parse, text: str, *args):
    try:
        return parse(text, *args)
    except (LangError, WordError, LinAlgError) as exc:
        raise UsageError(f"parse error: {exc}") from None


def _term_arg(value: str, lang: str) -> Term:
    return _parsed(parse_term, _read_input(value), lang)


def _word_arg(value: str) -> Word:
    return _parsed(parse_word, _read_input(value))


def _source_type(args, c: Term) -> ValueType:
    if args.in_type is not None:
        return _parsed(parse_type, _read_input(args.in_type))
    return infer_source(c)


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    c = _term_arg(args.term, args.lang)
    ty = typecheck(c, _source_type(args, c), args.lang)
    print(f"src {format_type(ty.src)}")
    print(f"dst {format_type(ty.dst)}")
    return 0


def cmd_sem(args) -> int:
    c = _term_arg(args.term, args.lang)
    m = sem(c, _source_type(args, c), args.lang)
    print(format_matrix(m))
    if args.float:
        print("# float approx (non-authoritative)")
        for row in m.to_float():
            print(" ".join(f"{x:.10g}" for x in row))
    return 0


def cmd_synth(args) -> int:
    text = _read_input(args.matrix)
    if "\n" not in text:
        text = text.replace("/", "\n")
    m = _parsed(parse_matrix, text)
    if not args.trace:
        print(format_word(normal_form_word(m)))
        return 0
    trace = synthesize(m)
    print(format_word(_trace_word(trace)))
    print(format_trace(trace))
    return 0


def cmd_normalize(args) -> int:
    if args.kind == "word":
        w = _word_arg(args.input)
        ops, n = word_program(w.gens), w.n
    else:
        c = _term_arg(args.input, args.lang)
        b = _source_type(args, c)
        ops, n = lower(c, b, args.lang)[1], hdim(b)
    print(format_word(program_normal_form(ops, n)))
    return 0


def cmd_equiv(args) -> int:
    if args.kind == "word":
        decide, inputs = word_equivalence, (_word_arg(args.a), _word_arg(args.b))
    else:
        c1, c2 = _term_arg(args.a, args.lang), _term_arg(args.b, args.lang)
        try:
            b = _source_type(args, c1)
        except BudgetError:
            raise  # past a budget, c2 cannot stand in for c1
        except LangError:
            b = infer_source(c2)
        decide, inputs = term_equivalence, (c1, c2, b, args.lang)
    try:
        verdict = decide(*inputs)
    except BudgetError:
        raise  # a domain failure, as in check and sem
    except (LangError, WordError) as exc:
        # the inputs have no one type to compare them at
        raise UsageError(str(exc)) from None
    print(f"lhs {format_word(verdict.lhs)}")
    print(f"rhs {format_word(verdict.rhs)}")
    print("EQUIV" if verdict.equal else "DISTINCT")
    return 0 if verdict.equal else 1


def cmd_relations_verify(args) -> int:
    failed = skipped = 0
    for rel in CATALOG:
        if args.n < rel.min_dim:
            print(f"SKIP {rel.id} needs n >= {rel.min_dim}")
            skipped += 1
            continue
        # verify_relation applies each generator to its rows as listed, so
        # relabelling the indices by a permutation conjugates both sides by
        # one permutation matrix, and rows outside the indices stay fixed:
        # every assignment has the verdict of (1..k) at dimension k, and the
        # first in lexicographic order, (1..k) itself, is the first that fails
        k = len(rel.formals)
        first = tuple(range(1, k + 1))
        if not verify_relation(rel, first, k):
            binding = ",".join(f"{f}={i}" for f, i in zip(rel.formals, first))
            print(f"FAIL {rel.id} at {binding}")
            failed += 1
            continue
        count = math.perm(args.n, k)  # assignments of k distinct indices from 1..n
        print(f"PASS {rel.id} assignments={min(count, args.max_assignments or count)}")
    total = len(CATALOG)
    print(
        f"{total - failed - skipped} of {total} relations verified "
        f"(n={args.n}, {skipped} skipped, {failed} failed)"
    )
    return 1 if failed else 0


def cmd_translate(args) -> int:
    src, dst = args.from_, "qpi" if args.to == "term" else args.to
    contract = "semantics preserved"
    # a term's target type is checked as well as its matrix, which for a
    # zero-dimensional block is the same whatever the type
    want = got = None
    if src in ("qpi", "hpi") and dst == "words":
        c = _term_arg(args.input, src)
        b = _source_type(args, c)
        # lowered once: the word and the matrix it is checked against are
        # both read off the one program
        ops, n = lower(c, b)[1], hdim(b)
        out = program_form(ops, n)[0]
        TranslationReport(c, out, program_matrix(ops, n), word_sem(out))
    elif src == "words" and dst == "qpi":
        w = _word_arg(args.input)
        out = t_q(w)
        want = nsum(w.n)
        got, ops = lower(out, want)
        TranslationReport(w, out, word_sem(w), program_matrix(ops, w.n))
    elif src == "hpi" and dst == "qpi":
        # hpi is a sublanguage of qpi and the embedding the identity on terms:
        # the parser admits only hpi primitives, and typing the term in hpi
        # is the whole check
        out = _term_arg(args.input, "hpi")
        typecheck(out, _source_type(args, out), "hpi")
    elif src == "qpi" and dst == "hpi":
        c = _term_arg(args.input, "qpi")
        b = _source_type(args, c)
        out = t_h(c, b)
        (dc, ops), (got, out_ops) = lower(c, b), t_h_lower(out, b)
        want, n = Sum(ONE, dc), hdim(b)
        sm, rm = program_matrix(ops, n), program_matrix(out_ops, n + 1)
        TranslationReport(c, out, sm, rm, padding=1)
        contract = "I1 (+) source"
    else:
        raise UsageError(f"unsupported direction: {args.from_} -> {args.to}")
    if got is not want:
        raise TranslateError(
            f"translation has target type {format_type(got)}, not {format_type(want)}"
        )
    print(format_word(out) if dst == "words" else format_term(out))
    print(f"verified: {contract}")
    return 0


def cmd_derive_check(args) -> int:
    d = _parsed(parse_derivation, _read_input(args.derivation))
    for w in replay(d.start, d.steps):
        if args.trace:
            print(format_word(w))
    if w != d.final:
        raise WordError(f"final word differs: got {format_word(w)}")
    print(f"ok: {len(d.steps)} steps verified, final word matches")
    return 0


# ---------------------------------------------------------------------------
# wiring

# The full enumeration is 3,846 assignments at n=6 and 32,712 at n=8, but
# relations-verify decides each relation once, on two k x k words for its k
# indices (see cmd_relations_verify), so n only sets the counts it prints.
MAX_RELATIONS_N = 8


def _count(low: int, high=None):
    """argparse type: a count in [low, high]."""

    def parse(text: str) -> int:
        # a minus sign is read only to say that the value is out of range
        value = parse_natural(text.removeprefix("-"), repr(text), argparse.ArgumentTypeError)
        if text.startswith("-") or value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"{text} is out of range: must be {bound}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged, and the
    # cmd_* functions it holds look their callees up when they run
    top = argparse.ArgumentParser(
        prog="hadpi",
        description="Exact evaluation, synthesis, and translation for "
        "reversible combinator programs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def typed(p, with_lang=True):
        p.add_argument("--in-type", default=None, help="source type; inferred if omitted")
        if with_lang:
            p.add_argument(
                "--lang", default="qpi", choices=["pi", "qpi", "hpi"],
                help="language gate (default qpi)",
            )

    p = sub.add_parser("check", help="typecheck a term")
    p.add_argument("term")
    typed(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sem", help="evaluate a term to its exact matrix")
    p.add_argument("term")
    typed(p)
    p.add_argument("--float", action="store_true", help="append decimal approximation")
    p.set_defaults(func=cmd_sem)

    p = sub.add_parser("synth", help="synthesize a word from an orthogonal matrix")
    p.add_argument("matrix", help="matrix text, file, or - for stdin; / separates rows inline")
    p.add_argument("--trace", action="store_true", help="print syllables with levels")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("normalize", help="canonical normal-form word of a term or word")
    p.add_argument("input")
    p.add_argument("--kind", default="term", choices=["term", "word"])
    typed(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equiv", help="decide semantic equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--kind", default="term", choices=["term", "word"])
    typed(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("relations-verify", help="check each catalog relation once, at indices 1..k")
    p.add_argument(
        "--n", type=_count(1, MAX_RELATIONS_N), default=6,
        help=f"ambient dimension, 1 to {MAX_RELATIONS_N} (default 6)",
    )
    p.add_argument(
        "--max-assignments", type=_count(0), default=0,
        help="cap the assignment count printed per relation (0 = no cap)",
    )
    p.set_defaults(func=cmd_relations_verify)

    p = sub.add_parser("translate", help="translate between languages and words")
    p.add_argument("input")
    p.add_argument("--from", dest="from_", required=True, choices=["qpi", "hpi", "words"])
    p.add_argument("--to", required=True, choices=["qpi", "hpi", "words", "term"])
    typed(p, with_lang=False)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("derive-check", help="replay a relation derivation file")
    p.add_argument("derivation", help="file: start word, step lines, final word")
    p.add_argument("--trace", action="store_true", help="print the word after each step")
    p.set_defaults(func=cmd_derive_check)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LangError, WordError, LinAlgError, SynthesisError, TranslateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # safety net: only code bounded through MAX_NESTING recurses
        print("error: the input nests past the interpreter's recursion limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
