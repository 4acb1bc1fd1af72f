"""Golden transcript of the `hadpi` command line.

Each case names one fixed invocation; the data file holds its exit code
and the text it wrote to stdout and stderr, with the sha256 of any text
over 2 kB in place of the text.  An exception that escapes `main` is
recorded as the interpreter would end: exit 1 and a traceback, whose
frames are elided, and a test refuses any entry that records one.
Regenerate the file only when the command line's output is meant to
change, and name every entry that changed; the script prints each entry
it adds, removes or changes:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from hadpi import cli, lang

DATA = Path(__file__).with_name("cli_golden.json")
LONG_TEXT = 2048  # bytes; longer text is recorded by its digest

NINES = "9" * 5000  # past the 4,300 digits that int() converts


def derivation(*steps: str, start: str = "n=2 H[1,2] H[1,2]", final: str = "n=2 eps") -> str:
    return "\n".join([start, *steps, final]) + "\n"


def derive(text: str, *flags: str) -> tuple[list[str], str]:
    # a derivation is a multi-line file; it arrives on stdin, as `-` allows
    return ["derive-check", "-", *flags], text


A3 = "step a3 L->R at 0 with a=1,b=2"


def factor_nest(k: int) -> str:
    # factor's shared right factor makes the inferred source a pattern whose
    # text grows 4x every two levels
    term = "factor"
    for _ in range(k):
        term = f"factor ; swap* ; ({term}) * id"
    return term


# one round adds 2 to the lde; 1,500 rounds pass the float range
LDE_3000 = (
    "(assocl+ ; (had + id) ; assocr+ ; (id + had) ; assocl+ ; (swap+ + id) ; assocr+)^1500"
)

# 16,666 rounds of lde 2 give entries of over 4,300 digits within the leaf budget
ENTRY_DIGITS = "((had + id) ; assocr+ ; (id + had) ; assocl+)^16666"

# name -> (argv, stdin)
CASES: dict[str, tuple[list[str], str]] = {
    # the README's examples
    "readme-check": (["check", "had ; neg1 + id"], ""),
    "readme-sem": (["sem", "had", "--float"], ""),
    "readme-synth": (["synth", "dim 2/lde 1/1 1/1 -1", "--trace"], ""),
    "readme-normalize": (["normalize", "n=2 H[1,2] H[1,2] X[1,2]", "--kind", "word"], ""),
    "readme-equiv": (["equiv", "(had ; swap+)^8", "id"], ""),
    "readme-relations-verify": (["relations-verify", "--n", "6"], ""),
    "readme-translate": (["translate", "neg1", "--from", "qpi", "--to", "hpi"], ""),
    "readme-derive-check": derive(
        derivation(A3, start="n=3 H[1,2] H[1,2] Z[3]", final="n=3 Z[3]"), "--trace"
    ),
    # check
    "check-type-error": (["check", "had", "--in-type", "1+1+1"], ""),
    "check-ambiguous-source": (["check", "id"], ""),
    "check-language-gate": (["check", "neg1", "--lang", "hpi"], ""),
    "check-parse-error": (["check", "had ;"], ""),
    "check-shared-pattern-14": (["check", factor_nest(14)], ""),
    "check-shared-pattern-30": (["check", factor_nest(30)], ""),
    # sem
    "sem-sum": (["sem", "had + neg1"], ""),
    "sem-type-error": (["sem", "swap*", "--in-type", "1+1"], ""),
    "sem-float-large-exponent": (["sem", LDE_3000, "--in-type", "1+(1+1)", "--float"], ""),
    "sem-entry-digits": (["sem", ENTRY_DIGITS, "--in-type", "(1+1)+1"], ""),
    # synth
    "synth-not-orthogonal": (["synth", "dim 2/lde 0/1 1/0 1"], ""),
    # column 2 is e_2, and column 1 pairs its odd row 1 with row 2
    "synth-not-orthogonal-odd-row-below": (["synth", "-"], "dim 2\nlde 1\n1 0\n1 rt2\n"),
    "synth-parse-error": (["synth", "dim x"], ""),
    # normalize
    "normalize-term": (["normalize", "had ; neg1 + id"], ""),
    "normalize-word-parse-error": (["normalize", "n=2 Q[1]", "--kind", "word"], ""),
    # equiv
    "equiv-distinct": (["equiv", "had", "swap+"], ""),
    "equiv-source-from-rhs": (["equiv", "id", "had"], ""),
    "equiv-no-source": (["equiv", "id", "id"], ""),
    "equiv-incompatible": (["equiv", "had", "neg1", "--in-type", "1+1"], ""),
    "equiv-targets-differ": (["equiv", "uniti+", "id", "--in-type", "1"], ""),
    "equiv-source-past-max-dim": (["equiv", " * ".join(["had"] * 12), "id"], ""),
    "equiv-language-gate": (["equiv", "had", "had", "--lang", "pi"], ""),
    "equiv-budget-in-lhs": (["equiv", "neg1 ; uniti+^1000", "id"], ""),
    "equiv-words": (["equiv", "n=2 H[1,2] H[1,2]", "n=2 eps", "--kind", "word"], ""),
    "equiv-words-distinct": (["equiv", "n=2 H[1,2]", "n=2 X[1,2]", "--kind", "word"], ""),
    "equiv-words-dimensions-differ": (["equiv", "n=2 eps", "n=3 eps", "--kind", "word"], ""),
    # the empty word on 0, as normalize, synth and translate print it
    "equiv-words-dimension-zero": (["equiv", "n=0 eps", "n=0 eps", "--kind", "word"], ""),
    # relations-verify
    "relations-verify-skips": (["relations-verify", "--n", "3"], ""),
    "relations-verify-capped": (["relations-verify", "--n", "4", "--max-assignments", "2"], ""),
    # every assignments= count at the largest n allowed
    "relations-verify-n8": (["relations-verify", "--n", "8"], ""),
    # translate
    "translate-qpi-words": (["translate", "had ; neg1 + id", "--from", "qpi", "--to", "words"], ""),
    "translate-words-qpi": (["translate", "n=2 H[1,2] Z[1]", "--from", "words", "--to", "qpi"], ""),
    "translate-words-qpi-dimension-zero": (
        ["translate", "n=0 eps", "--from", "words", "--to", "qpi"], ""
    ),
    "translate-hpi-qpi": (["translate", "had ; swap+", "--from", "hpi", "--to", "qpi"], ""),
    "translate-unsupported": (["translate", "had", "--from", "words", "--to", "hpi"], ""),
    "translate-language-gate": (["translate", "neg1", "--from", "hpi", "--to", "qpi"], ""),
    # c^m nests to the right, a link deeper each time; the output prints
    "translate-hpi-qpi-power": (["translate", "had^1000", "--from", "hpi", "--to", "qpi"], ""),
    # the output nests `id +` 999 levels deep, past the interpreter's
    # recursion limit, and no walk or printing of it recurses
    "translate-words-qpi-deep": (
        ["translate", "n=1000 Z[1000]", "--from", "words", "--to", "qpi"], ""
    ),
    # derive-check
    "derive-check-ok": derive(derivation(A3, "step a2 L->R at 0 with a=1,b=3",
                                         start="n=3 H[1,2] H[1,2] X[1,3] X[1,3]",
                                         final="n=3 eps")),
    "derive-check-final-word-differs": derive(derivation(A3, final="n=2 Z[1]")),
    "derive-check-no-match": derive(derivation("step a1 L->R at 0 with a=1")),
    "derive-check-position-out-of-range": derive(derivation("step a3 L->R at 5 with a=1,b=2")),
    "derive-check-index-out-of-range": derive(derivation("step a3 L->R at 0 with a=1,b=9")),
    "derive-check-repeated-index": derive(derivation("step a3 L->R at 0 with a=1,b=1")),
    "derive-check-trace-to-failure": derive(
        derivation(A3, A3, start="n=2 H[1,2] H[1,2] Z[1]", final="n=2 Z[1]"), "--trace"
    ),
    "derive-check-malformed-file": derive("step a1 L->R at 0 with a=1\n"),
    "derive-check-bad-start-word": derive(derivation(A3, start="n=2 Q[1]")),
    "derive-check-bad-step-syntax": derive(derivation("step garbage")),
    "derive-check-unknown-relation": derive(derivation("step q9 L->R at 0 with a=1")),
    "derive-check-bad-binding": derive(derivation("step a3 L->R at 0 with a=1,b")),
    "derive-check-missing-indices": derive(derivation("step a3 L->R at 0 with a=1")),
    "derive-check-line-after-comments": derive(
        "# a3 twice\n\n" + derivation(A3, "step zz", final="n=2 eps")
    ),
    # integer tokens past what int() converts
    "long-generator-index": (["normalize", f"n=3 Z[{NINES}]", "--kind", "word"], ""),
    "long-step-position": derive(derivation(f"step a3 L->R at {NINES} with a=1,b=2")),
    # counts in every format: ASCII digits, no sign or underscore
    "count-word-dimension": (["normalize", "n=1_0 X[1,2]", "--kind", "word"], ""),
    "count-matrix-dim": (["synth", "dim 0_2/lde 1/1 1/1 -1"], ""),
    "count-matrix-lde": (["synth", "dim 2/lde +1/1 1/1 -1"], ""),
    "count-matrix-entry": (["synth", "dim 1/lde 0/\u0661"], ""),
    "count-matrix-entry-digits": (["synth", f"dim 1/lde 0/{NINES}"], ""),
    "count-term-power": (["check", "had^\u0663"], ""),
    "count-relations-n": (["relations-verify", "--n", "\u0663"], ""),
    # one input per row of the README's budget table
    "budget-nesting-parse": (["check", "(" * 101 + "had" + ")" * 101], ""),
    "budget-nesting-growth": (["check", "neg1 ; uniti+^1000"], ""),
    "budget-term-leaves": (["sem", "had^99999999"], ""),
    "budget-dim-word": (["normalize", "n=20000 eps", "--kind", "word"], ""),
    "budget-dim-type": (["sem", "id", "--in-type", "*".join(["(1+1)"] * 11)], ""),
    "budget-dim-inferred-source": (["sem", " * ".join(["had"] * 12)], ""),
    "budget-dim-zero-factor": (
        ["sem", "id * id", "--in-type", "(" + "*".join(["(1+1)"] * 30) + ")*0"], ""
    ),
    "budget-relations-n": (["relations-verify", "--n", "9"], ""),
    "budget-max-assignments": (["relations-verify", "--max-assignments", "-1"], ""),
}


def _text(text: str):
    data = text.encode()
    if len(data) <= LONG_TEXT:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def transcript(argv: list[str], stdin: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    # argparse wraps its usage line to the terminal's width
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                code = 1
                print("Traceback (most recent call last):\n  ...", file=sys.stderr)
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": _text(out.getvalue()), "stderr": _text(err.getvalue())}


def test_transcript_covers_the_cases():
    assert list(json.loads(DATA.read_text())) == list(CASES)


def test_no_entry_records_a_traceback():
    # every exit is 0, 1 or 2 with at most one error: line; a digest of
    # stderr could hide a traceback, so stderr is kept as text
    golden = json.loads(DATA.read_text())
    bad = [
        name for name, entry in golden.items()
        if not isinstance(entry["stderr"], str) or "Traceback" in entry["stderr"]
    ]
    assert not bad, f"entries that record a traceback: {bad}"


@pytest.mark.parametrize("name", list(CASES))
def test_transcript_matches_golden(name):
    golden = json.loads(DATA.read_text())
    assert transcript(*CASES[name]) == golden[name]


# check, sem, normalize and equiv of terms, the hpi -> qpi embedding, and
# the three language gates
NO_SECOND_WALK = [
    "readme-check", "readme-sem", "normalize-term", "readme-equiv", "equiv-distinct",
    "translate-hpi-qpi", "translate-hpi-qpi-power",
    "check-language-gate", "equiv-language-gate", "translate-language-gate",
]


@pytest.mark.parametrize("name", NO_SECOND_WALK)
def test_no_command_walks_a_parsed_term_again(monkeypatch, name):
    # the parser applies --lang as it reads each primitive, so a command
    # reaches inference or lowering without walking the term again: a walk
    # of its nodes (lang._preorder) would raise
    def walk(c):
        raise AssertionError("a parsed term was walked again")

    monkeypatch.setattr(lang, "_preorder", walk)
    assert transcript(*CASES[name]) == json.loads(DATA.read_text())[name]


def regenerate() -> None:
    """Rewrite the data file, naming every entry added, removed or changed."""
    old = json.loads(DATA.read_text())
    new = {name: transcript(*case) for name, case in CASES.items()}
    for name in dict.fromkeys([*new, *old]):
        if name not in old:
            print(f"{name}: added")
        elif name not in new:
            print(f"{name}: removed")
        elif old[name] != new[name]:
            print(f"{name}: changed")
    DATA.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
