"""Command-line front end for the exact toolchain.

Every command is a pure function from its inputs to stdout text plus an
exit code: 0 success or equivalent, 1 domain failure (type error,
non-orthogonal matrix, distinct semantics, failed verification), 2 usage
or parse error.  Inputs are taken inline, from a file path, or from
stdin when the argument is "-".
"""

import argparse
import sys
from pathlib import Path

from .lang import (
    LangError,
    Prim,
    Term,
    ValueType,
    format_term,
    format_type,
    hdim,
    infer_source,
    nsum,
    parse_term,
    parse_type,
    primitives,
    sem,
    typecheck,
)
from .linalg import LinAlgError, format_matrix, parse_matrix
from .synthesis import (
    SynthesisError,
    _trace_word,
    format_trace,
    normal_form_word,
    synthesize,
)
from .translate import TranslateError, TranslationReport, qsem, t_h, t_q, wsem
from .words import (
    CATALOG,
    Word,
    WordError,
    apply_step,
    enumerate_assignments,
    format_word,
    parse_derivation,
    parse_word,
    verify_relation,
    word_sem,
)


class UsageError(ValueError):
    """Bad invocation or unparseable input; maps to exit code 2."""


def _read_input(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    p = Path(value)
    try:
        is_file = p.is_file()
    except OSError:
        is_file = False  # too long or otherwise not a usable path name
    return p.read_text() if is_file else value


def _term_arg(value: str, lang: str) -> Term:
    try:
        c = parse_term(_read_input(value))
    except LangError as exc:
        raise UsageError(f"parse error: {exc}") from None
    allowed = primitives(lang)
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Prim) and node.name not in allowed:
            raise UsageError(f"parse error: {node.name} is not in {lang}")
        for attr in ("fst", "snd", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return c


def _type_arg(value: str) -> ValueType:
    try:
        return parse_type(_read_input(value))
    except LangError as exc:
        raise UsageError(f"parse error: {exc}") from None


def _word_arg(value: str) -> Word:
    try:
        return parse_word(_read_input(value))
    except WordError as exc:
        raise UsageError(f"parse error: {exc}") from None


def _matrix_arg(value: str):
    text = _read_input(value)
    if "\n" not in text:
        text = text.replace("/", "\n")
    try:
        return parse_matrix(text)
    except LinAlgError as exc:
        raise UsageError(f"parse error: {exc}") from None


def _source_type(args, c: Term) -> ValueType:
    if args.in_type is not None:
        return _type_arg(args.in_type)
    return infer_source(c)


def _print_float(m) -> None:
    print("# float approx (non-authoritative)")
    for row in m.to_float():
        print(" ".join(f"{x:.10g}" for x in row))


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    c = _term_arg(args.term, args.lang)
    b = _source_type(args, c)
    ty = typecheck(c, b, args.lang)
    print(f"src {format_type(ty.src)}")
    print(f"dst {format_type(ty.dst)}")
    return 0


def cmd_sem(args) -> int:
    c = _term_arg(args.term, args.lang)
    b = _source_type(args, c)
    m = sem(c, b, args.lang)
    print(format_matrix(m))
    if args.float:
        _print_float(m)
    return 0


def cmd_synth(args) -> int:
    m = _matrix_arg(args.matrix)
    trace = synthesize(m)
    print(format_word(_trace_word(trace)))
    if args.trace:
        print(format_trace(trace))
    return 0


def cmd_normalize(args) -> int:
    if args.kind == "word":
        w = _word_arg(args.input)
        m = word_sem(w)
    else:
        c = _term_arg(args.input, args.lang)
        m = sem(c, _source_type(args, c), args.lang)
    print(format_word(normal_form_word(m)))
    return 0


def cmd_equiv(args) -> int:
    if args.kind == "word":
        w1, w2 = _word_arg(args.a), _word_arg(args.b)
        if w1.n != w2.n:
            raise UsageError(f"ambient dimensions differ: {w1.n} vs {w2.n}")
        m1, m2 = word_sem(w1), word_sem(w2)
    else:
        c1 = _term_arg(args.a, args.lang)
        c2 = _term_arg(args.b, args.lang)
        if args.in_type is not None:
            b = _type_arg(args.in_type)
        else:
            try:
                b = infer_source(c1)
            except LangError:
                b = infer_source(c2)
        try:
            t1 = typecheck(c1, b, args.lang)
            t2 = typecheck(c2, b, args.lang)
        except LangError as exc:
            raise UsageError(f"incompatible at {format_type(b)}: {exc}") from None
        if t1.dst != t2.dst:
            raise UsageError(
                f"target types differ: {format_type(t1.dst)} vs {format_type(t2.dst)}"
            )
        m1, m2 = sem(c1, b, args.lang), sem(c2, b, args.lang)
    nf1, nf2 = normal_form_word(m1), normal_form_word(m2)
    print(f"lhs {format_word(nf1)}")
    print(f"rhs {format_word(nf2)}")
    if nf1.gens == nf2.gens:
        print("EQUIV")
        return 0
    print("DISTINCT")
    return 1


def cmd_relations_verify(args) -> int:
    failed = skipped = 0
    for rel in CATALOG:
        if args.n < rel.min_dim:
            print(f"SKIP {rel.id} needs n >= {rel.min_dim}")
            skipped += 1
            continue
        checked = 0
        bad = None
        for indices in enumerate_assignments(rel, args.n):
            if args.max_assignments and checked >= args.max_assignments:
                break
            if not verify_relation(rel, indices, args.n):
                bad = indices
                break
            checked += 1
        if bad is not None:
            binding = ",".join(f"{f}={i}" for f, i in zip(rel.formals, bad))
            print(f"FAIL {rel.id} at {binding}")
            failed += 1
        else:
            print(f"PASS {rel.id} assignments={checked}")
    total = len(CATALOG)
    print(
        f"{total - failed - skipped} of {total} relations verified "
        f"(n={args.n}, {skipped} skipped, {failed} failed)"
    )
    return 1 if failed else 0


def cmd_translate(args) -> int:
    src, dst = args.from_, args.to
    if dst == "term":
        dst = "qpi"
    if src in ("qpi", "hpi") and dst == "words":
        c = _term_arg(args.input, src)
        b = _source_type(args, c)
        w = wsem(c, b)
        TranslationReport(c, w, sem(c, b), word_sem(w))
        print(format_word(w))
        print("verified: semantics preserved")
        return 0
    if src == "words" and dst == "qpi":
        w = _word_arg(args.input)
        c = t_q(w)
        TranslationReport(w, c, word_sem(w), sem(c, nsum(w.n)))
        print(format_term(c))
        print("verified: semantics preserved")
        return 0
    if src == "hpi" and dst == "qpi":
        c = _term_arg(args.input, "hpi")
        out = qsem(c)
        b = _source_type(args, c)
        TranslationReport(c, out, sem(c, b, "hpi"), sem(out, b))
        print(format_term(out))
        print("verified: semantics preserved")
        return 0
    if src == "qpi" and dst == "hpi":
        c = _term_arg(args.input, "qpi")
        b = _source_type(args, c)
        h = t_h(c, b)
        from .lang import ONE, Sum

        TranslationReport(c, h, sem(c, b), sem(h, Sum(ONE, b), "hpi"), padding=1)
        print(format_term(h))
        print("verified: I1 (+) source")
        return 0
    raise UsageError(f"unsupported direction: {args.from_} -> {args.to}")


def cmd_derive_check(args) -> int:
    text = _read_input(args.derivation)
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if len(lines) < 2 or not lines[0].startswith("n=") or not lines[-1].startswith("n="):
        raise UsageError(
            "derivation file needs a word on the first and last line, steps between"
        )
    w = _word_arg(lines[0])
    final = _word_arg(lines[-1])
    steps = parse_derivation("\n".join(lines[1:-1]))
    reference = word_sem(w)
    if args.trace:
        print(format_word(w))
    for i, step in enumerate(steps, start=1):
        w = apply_step(w, step)
        if args.trace:
            print(format_word(w))
        if word_sem(w) != reference:
            print(f"step {i} changed the semantics", file=sys.stderr)
            return 1
    if w != final:
        print(f"final word differs: got {format_word(w)}", file=sys.stderr)
        return 1
    print(f"ok: {len(steps)} steps verified, final word matches")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("relations-verify", help="check the relation catalog by enumeration")
    p.add_argument("--n", type=int, default=6, help="ambient dimension (default 6)")
    p.add_argument(
        "--max-assignments", type=int, default=0,
        help="cap enumerated assignments per relation (0 = all)",
    )
    p.set_defaults(func=cmd_relations_verify)

    p = sub.add_parser("translate", help="translate between languages and words")
    p.add_argument("input")
    p.add_argument("--from", dest="from_", required=True, choices=["qpi", "hpi", "words"])
    p.add_argument("--to", required=True, choices=["qpi", "hpi", "words", "term"])
    p.add_argument("--in-type", default=None, help="source type; inferred if omitted")
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


if __name__ == "__main__":
    sys.exit(main())
