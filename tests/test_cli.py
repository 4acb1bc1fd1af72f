"""Command-line interface: output formats and exit codes."""

import argparse
import contextlib
import io
import random
import signal
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hadpi import cli, lang, linalg, synthesis, words
from hadpi.cli import main
from hadpi.lang import format_term, parse_term
from hadpi.linalg import format_matrix, gen_h
from hadpi.translate import t_q
from hadpi.words import Word, format_word, parse_word, word_sem


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_reports_both_types(capsys):
    code, out, _ = run(capsys, "check", "had", "--in-type", "1+1", "--lang", "hpi")
    assert code == 0
    assert out == "src 1+1\ndst 1+1\n"


def test_check_locates_type_errors(capsys):
    code, out, err = run(capsys, "check", "had ; swap*", "--in-type", "1+1")
    assert code == 1
    assert out == ""
    assert err == "error: at seq.snd: swap* needs a product input, got 1+1\n"


def test_long_type_error_paths_are_cut(capsys):
    # 201 path steps, once a 1,722-character line
    code, out, err = run(capsys, "check", "uniti+^1000", "--in-type", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 300
    assert err.startswith("error: at seq.snd.seq.snd.seq.snd.seq.snd.seq.snd.<191 steps>.")
    assert "uniti+ nests the type more than 100 levels" in err


def test_check_language_gate_is_a_parse_error(capsys):
    code, _, err = run(capsys, "check", "neg1", "--lang", "hpi")
    assert code == 2
    assert err == "error: parse error: neg1 is not in hpi\n"
    code, _, err = run(capsys, "check", "had ; (id + (neg1 * had))", "--lang", "hpi")
    assert (code, err) == (2, "error: parse error: neg1 is not in hpi\n")
    code, _, err = run(capsys, "check", "had", "--lang", "pi")
    assert code == 2
    # of two offenders, the gate names the first in the text
    code, _, err = run(capsys, "check", "neg1 ; had", "--lang", "pi")
    assert (code, err) == (2, "error: parse error: neg1 is not in pi\n")
    # the gate reports as the parser reads the primitive, so before a later
    # syntax error
    code, _, err = run(capsys, "check", "neg1 ;", "--lang", "hpi")
    assert (code, err) == (2, "error: parse error: neg1 is not in hpi\n")


def test_check_infers_source(capsys):
    code, out, _ = run(capsys, "check", "had ; neg1 + id")
    assert code == 0
    assert out == "src 1+1\ndst 1+1\n"


def test_inference_errors_name_the_primitive_in_the_term(capsys):
    # absorb pins dist's shared right factor to 0; assocl* meets it there
    code, out, err = run(capsys, "check", "dist ; (absorb + assocl*)")
    assert (code, out) == (1, "")
    assert err == "error: cannot type assocl*: 0 clashes with (?*?)\n"


def test_check_bad_syntax(capsys):
    code, _, err = run(capsys, "check", "had ;")
    assert code == 2
    assert "parse error" in err


def _nested(shape: str, depth: int) -> list[str]:
    """check argv whose term or type opens `depth` nesting levels."""
    if shape == "parens":
        return ["check", "(" * depth + "had" + ")" * depth]
    if shape == "summands":
        k = depth + 1
        return ["check", "+".join(["id"] * k), "--in-type", "+".join(["1"] * k)]
    if shape == "factors":
        k = depth + 1
        return ["check", "*".join(["id"] * k), "--in-type", "*".join(["1"] * k)]
    # "type-parens": the term is shallow, its source type is not
    return ["check", "id", "--in-type", "(" * depth + "1" + ")" * depth]


NEST_SHAPES = ["parens", "summands", "factors", "type-parens"]


@pytest.mark.parametrize("shape", NEST_SHAPES)
def test_deep_nesting_exits_two(capsys, shape):
    # 3,000 levels used to overrun the recursion limit in the parser
    code, out, err = run(capsys, *_nested(shape, 3000))
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: ") and err.count("\n") == 1
    assert f"limit of {lang.MAX_NESTING} levels (MAX_NESTING)" in err


def test_recursion_past_the_limit_exits_one(capsys, monkeypatch):
    # the safety net behind the nesting budget: should code bounded through
    # MAX_NESTING still pass the interpreter's recursion limit, the command
    # fails with one line, not a traceback
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "typecheck", too_deep)
    code, out, err = run(capsys, "check", "had")
    assert (code, out) == (1, "")
    assert err == "error: the input nests past the interpreter's recursion limit\n"


@pytest.mark.parametrize("shape", NEST_SHAPES)
def test_nesting_budget_boundary(capsys, shape):
    limit = lang.MAX_NESTING
    argv = _nested(shape, limit)
    assert run(capsys, *argv)[0] == 0
    # what parses also evaluates, infers, translates and prints in bounds
    for cmd in (["sem"], ["equiv", argv[1]], ["translate", "--from", "qpi", "--to", "words"]):
        assert run(capsys, cmd[0], argv[1], *cmd[1:], *argv[2:])[0] == 0
    code, _, err = run(capsys, *_nested(shape, limit + 1))
    assert code == 2 and "MAX_NESTING" in err


def test_mixed_nesting_at_the_limit_runs(capsys):
    half = lang.MAX_NESTING // 2
    term = "id + (id ; " * half + "had" + ")" * half
    in_type = "1+" * half + "(1+1)"
    for argv in (
        ["check", term], ["sem", term], ["normalize", term], ["equiv", term, term],
        ["translate", term, "--from", "qpi", "--to", "words"],
        ["translate", term, "--from", "qpi", "--to", "hpi"],
        ["translate", term, "--from", "hpi", "--to", "qpi"],
    ):
        assert run(capsys, *argv, "--in-type", in_type)[0] == 0
    code, _, err = run(capsys, "check", "id + (" + term + ")", "--in-type", "1+" + in_type)
    assert code == 2 and "MAX_NESTING" in err


@pytest.mark.parametrize("argv", [
    ["check", "uniti+^1000", "--in-type", "1"],
    ["check", "neg1 ; uniti+^1000"],  # the same growth, met by inference
    ["sem", "had ; uniti*^1000"],
])
def test_types_grown_past_the_nesting_budget_are_type_errors(capsys, argv):
    # a short chain used to build a type too deep to print or compare
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {lang.MAX_NESTING} levels (MAX_NESTING) past the deeper of" in err


def test_type_growth_is_bounded_by_the_source_of_the_whole_call(capsys):
    limit = lang.MAX_NESTING
    deep = "+".join(["1"] * (limit + 1))  # a source type of depth MAX_NESTING
    # the whole type may reach MAX_NESTING levels past the source, wherever
    # in it the growth happens, and not one level more
    for term, in_type in (
        (f"uniti+^{limit}", deep),
        ("id+" * (limit - 1) + f"uniti+^{limit + 1}", "1+" * (limit - 1) + "1"),
    ):
        for cmd in (["check"], ["sem"], ["equiv", term]):
            assert run(capsys, cmd[0], term, *cmd[1:], "--in-type", in_type)[0] == 0
        code, _, err = run(capsys, "check", term + " ; uniti+", "--in-type", in_type)
        assert code == 1 and "MAX_NESTING" in err


def test_hpi_translation_accepts_what_check_accepts_at_the_growth_edge(capsys):
    # t_h puts each primitive one sum of terms deeper; the padded source
    # 1+b is one level deeper too, which the max with MAX_NESTING absorbed
    limit = lang.MAX_NESTING
    term = "id + " * (limit - 1) + f"uniti+^{limit + 1}"
    in_type = "+".join(["1"] * limit)
    assert run(capsys, "check", term, "--in-type", in_type)[0] == 0
    code, out, err = run(
        capsys, "translate", term, "--from", "qpi", "--to", "hpi", "--in-type", in_type
    )
    assert (code, err) == (0, "")
    assert out.endswith("\nverified: I1 (+) source\n")
    # one level more is refused by both
    over = "id + " * (limit - 1) + f"uniti+^{limit + 2}"
    assert run(capsys, "check", over, "--in-type", in_type)[0] == 1
    argv = ("translate", over, "--from", "qpi", "--to", "hpi", "--in-type", in_type)
    assert run(capsys, *argv)[0] == 1


def test_ambiguous_source_patterns_are_cut(capsys):
    # assocr+^m infers the pattern ((...(?+?)+?...)+?) of 4m+5 characters
    def pattern(m):
        code, out, err = run(capsys, "check", f"assocr+^{m}")
        assert (code, out) == (1, "")
        head = "error: source type is ambiguous: inferred only "
        assert err.startswith(head) and err.endswith("; supply it explicitly\n")
        return err[len(head) : -len("; supply it explicitly\n")]

    whole = "(" * 29 + "?+?)" + "+?)" * 28
    assert pattern(28) == whole and len(whole) == 117
    assert pattern(29) == "(" * 30 + "?+?)+?)+?)<41 characters>" + ")+?" * 13 + ")"
    # once a 674-character pattern
    assert pattern(150) == "(" * 40 + "<525 characters>" + ")+?" * 13 + ")"


def test_programs_built_over_deep_sources_run(capsys):
    # t_q lowers the depth of nsum(n) (depth n-1) with assocl+ and restores
    # it with assocr+; past MAX_NESTING that is still no growth
    n = 150
    code, out, _ = run(capsys, "translate", f"n={n} X[1,2] H[1,{n}] Z[{n}]", "--from", "words", "--to", "qpi")
    assert code == 0 and out.count("\n") > 1
    w = parse_word(f"n={n} X[1,{n}] H[2,{n - 1}]")
    assert lang.sem(t_q(w), lang.nsum(n)) == word_sem(w)


def bounded_child(env, body: str, *args: str, timeout: float):
    """Run Python code in a child limited to 1 GiB of address space, so an
    input that escapes every budget fails a test instead of exhausting the
    machine; subprocess.run kills the child when the timeout expires."""
    limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    return subprocess.run(
        [sys.executable, "-c", limit + body, *args], capture_output=True, text=True,
        env=env, cwd=Path(__file__).parent, timeout=timeout,
    )


@pytest.mark.parametrize("term", ["had^99999999", "had^1000^1000^1000"])
def test_huge_powers_exit_two_before_expanding(pkg_env, term):
    body = "import sys\nfrom hadpi.cli import main\nsys.exit(main(sys.argv[1:]))"
    proc = bounded_child(pkg_env, body, "sem", term, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: parse error: ") and proc.stderr.count("\n") == 1
    assert f"limit of {lang.MAX_TERM_LEAVES} leaves (MAX_TERM_LEAVES)" in proc.stderr


# (argv, exit code): a word, a matrix and a type past MAX_DIM are parse
# errors; the matrix is 40 kB of text whose dense form would need 2 x 4e8
# entries.  A source inferred past it is a domain failure, and so is a
# product of terms over a 0-dimensional type with a factor past it, given
# or built by assocl*, which would run one factor 2^30 times.
FACTOR_1024 = "(" + "*".join(["(1+1)"] * 10) + ")"
PAST_MAX_DIM = [
    (["normalize", "n=20000 eps", "--kind", "word"], 2),
    (["synth", "dim 20000\nlde 0\n" + "1\n" * 20000], 2),
    (["sem", "id", "--in-type", "*".join(["(1+1)"] * 11)], 2),
    (["sem", " * ".join(["had"] * 12)], 1),
    (["sem", "id * id", "--in-type", "(" + "*".join(["(1+1)"] * 30) + ")*0"], 1),
    (["sem", "assocl* ; assocl* ; id * id", "--in-type", "*".join([FACTOR_1024] * 3) + "*0"], 1),
]


@pytest.mark.parametrize("argv, code", PAST_MAX_DIM)
def test_dimensions_past_the_budget_are_refused(pkg_env, argv, code):
    body = "import sys\nfrom hadpi.cli import main\nsys.exit(main(sys.argv[1:]))"
    proc = bounded_child(pkg_env, body, *argv, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"past the limit of {linalg.MAX_DIM} (MAX_DIM)" in proc.stderr


def test_dimension_budget_boundary(capsys):
    limit = linalg.MAX_DIM
    assert limit == 1024 == 2**10
    assert parse_word(f"n={limit} X[1,{limit}]").n == limit
    assert lang.parse_type("*".join(["(1+1)"] * 10)).dim == limit
    code, out, _ = run(capsys, "check", " * ".join(["had"] * 10))
    assert code == 0 and out.startswith("src (1+1)*(1+1)*")
    for argv in (
        ["normalize", f"n={limit + 1} eps", "--kind", "word"],
        ["synth", f"dim {limit + 1}/lde 0"],
        ["check", "had", "--in-type", "1+" + "*".join(["(1+1)"] * 10)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "MAX_DIM" in err
    # a type built past it through the API is refused by the walk
    b = lang.Sum(lang.ONE, lang.parse_type("*".join(["(1+1)"] * 10)))
    with pytest.raises(lang.LangError, match=r"source type's dimension .* \(MAX_DIM\)"):
        lang.typecheck(lang.Prim("id"), b)


def test_power_budget_counts_the_whole_expansion(capsys):
    limit = lang.MAX_TERM_LEAVES
    parse_term(f"had^{limit}")
    for term in (
        f"had^{limit + 1}",
        f"(had ; had)^{limit // 2 + 1}",  # c^m counts m times the size of c
        f"had^{limit // 2} ; had^{limit // 2 + 1}",  # sizes add up
        "had^" + "9" * 5000,  # past the digits int() accepts
    ):
        code, _, err = run(capsys, "check", term)
        assert code == 2 and "MAX_TERM_LEAVES" in err
    assert parse_term("had^" + "0" * 5000 + "2") == parse_term("had^2")


# ---------------------------------------------------------------------------
# sem


def test_sem_hadamard_frozen(capsys):
    code, out, _ = run(capsys, "sem", "had")
    assert code == 0
    assert out == "dim 2\nlde 1\n1 1\n1 -1\n"


def test_sem_squared_hadamard_is_identity(capsys):
    code, out, _ = run(capsys, "sem", "had^2")
    assert code == 0
    assert out == "dim 2\nlde 0\n1 0\n0 1\n"


def test_sem_identity_dim_one(capsys):
    code, out, _ = run(capsys, "sem", "id", "--in-type", "1")
    assert code == 0
    assert out == "dim 1\nlde 0\n1\n"


def test_sem_float_appendix(capsys):
    code, out, _ = run(capsys, "sem", "had", "--float")
    assert code == 0
    lines = out.splitlines()
    assert lines[4] == "# float approx (non-authoritative)"
    assert lines[5].startswith("0.7071067812")


def test_sem_from_file(capsys, tmp_path):
    f = tmp_path / "term.txt"
    f.write_text("dist ; id + id * swap+ ; factor\n")
    code, out, _ = run(capsys, "sem", str(f), "--in-type", "(1+1)*(1+1)")
    assert code == 0
    assert out.startswith("dim 4\nlde 0\n")


def test_unreadable_input_is_a_usage_error(capsys, monkeypatch, tmp_path):
    f = tmp_path / "term.txt"
    f.write_bytes(b"\xff had")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {f}: ") and err.count("\n") == 1
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff had")))
    code, out, err = run(capsys, "check", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read stdin: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# synth


def test_synth_inline_slash_rows(capsys):
    code, out, _ = run(capsys, "synth", "dim 2/lde 1/1 1/1 -1")
    assert code == 0
    assert out == "n=2 H[1,2]\n"


def test_synth_identity(capsys):
    code, out, _ = run(capsys, "synth", "dim 2/lde 0/1 0/0 1")
    assert code == 0
    assert out == "n=2 eps\n"


def test_synth_trace(capsys):
    code, out, _ = run(capsys, "synth", "dim 2/lde 1/1 1/1 -1", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2 H[1,2]"
    assert lines[1].startswith("# initial level")
    assert "# level" in lines[2]


def test_synth_runs_synthesis_once(capsys, monkeypatch):
    import hadpi.cli
    import hadpi.synthesis

    calls = []
    real = hadpi.synthesis.synthesize

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(hadpi.cli, "synthesize", counted)
    monkeypatch.setattr(hadpi.synthesis, "synthesize", counted)
    matrix = format_matrix(word_sem(parse_word("n=3 H[1,2] X[2,3] H[2,3] Z[2]")))
    code, plain, _ = run(capsys, "synth", matrix)
    assert code == 0 and len(calls) == 1
    code, traced, _ = run(capsys, "synth", matrix, "--trace")
    assert code == 0 and len(calls) == 2
    assert traced.startswith(plain)
    assert traced.splitlines()[1].startswith("# initial level")
    # this word's H generators cancel: synth is given its signed permutation
    # matrix, which it synthesizes once per call like any other
    matrix = format_matrix(word_sem(parse_word("n=3 H[1,2] X[2,3] H[1,3] Z[2]")))
    code, plain, _ = run(capsys, "synth", matrix)
    assert code == 0 and len(calls) == 3
    code, traced, _ = run(capsys, "synth", matrix, "--trace")
    assert code == 0 and len(calls) == 4
    assert traced.startswith(plain)


def test_synth_prints_the_normal_form(capsys):
    # synth reads its word off the trace it prints, through the signed
    # relabelling, as normal_form_word does
    rng = random.Random(5)
    for n in (2, 5, 9):
        for _ in range(4):
            gens = []
            for _ in range(3 * n):
                b, c = sorted(rng.sample(range(1, n + 1), 2))
                gens.append(rng.choice([f"Z[{b}]", f"X[{b},{c}]", f"H[{b},{c}]"]))
            m = word_sem(parse_word(f"n={n} " + " ".join(gens)))
            code, out, _ = run(capsys, "synth", format_matrix(m), "--trace")
            assert code == 0
            assert out.splitlines()[0] == format_word(synthesis.normal_form_word(m))


def test_synth_rejects_non_orthogonal(capsys):
    code, _, err = run(capsys, "synth", "dim 2/lde 0/1 1/0 1")
    assert code == 1
    assert "orthogonal" in err


# synthesis itself fails on each of these, and only then runs the dense
# orthogonality check that names the cause
NON_ORTHOGONAL = [
    "dim 2/lde 0/1 0/0 0",  # column 2 is zero
    "dim 3/lde 0/1 0 0/0 1 0/0 0 0",  # column 3 is zero
    "dim 3/lde 1/1 1 0/1 -1 0/0 0 1",  # H[1,2] with (3,3) perturbed
    "dim 3/lde 1/1 1 0/1 -1 1/0 0 2*rt2",  # H[1,2] with (2,3) and (3,3) perturbed
    "dim 2/lde 1/1 1/1 1+rt2",  # two odd rows of column 1 in different residue classes
    # an exponent no unit column allows: row operations would build 6 GB
    "dim 1/lde 99999999999/1",
]


@pytest.mark.parametrize("matrix", NON_ORTHOGONAL)
def test_synth_names_non_orthogonal_input(pkg_env, matrix):
    body = "import sys\nfrom hadpi.cli import main\nsys.exit(main(sys.argv[1:]))"
    # PYTHONOPTIMIZE=1 is python -O, which strips asserts
    for env in (pkg_env, {**pkg_env, "PYTHONOPTIMIZE": "1"}):
        proc = bounded_child(env, body, "synth", matrix, timeout=60)
        want = (1, "", "error: synthesis requires an orthogonal matrix\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_synthesis_budget_refuses_long_normal_forms(capsys, monkeypatch):
    def dense(self):
        raise AssertionError("dense orthogonality check past the budget")

    monkeypatch.setattr(linalg.ExactMatrix, "is_orthogonal", dense)
    w = parse_word("n=4 H[1,2] X[2,3] H[1,3] Z[2] H[3,4] H[2,4]")
    word, matrix, term = format_word(w), format_matrix(word_sem(w)), format_term(t_q(w))
    need = len(synthesis.synthesize(word_sem(w)).syllables)
    calls = [
        ("synth", matrix),
        ("normalize", word, "--kind", "word"),
        ("normalize", term),
        ("equiv", word, word, "--kind", "word"),
        ("equiv", term, term),
    ]
    monkeypatch.setattr(synthesis, "MAX_SYLLABLES", need)
    for argv in calls:
        assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(synthesis, "MAX_SYLLABLES", need - 1)
    err = f"error: the normal form passes the limit of {need - 1} syllables (MAX_SYLLABLES)\n"
    for argv in calls:
        assert run(capsys, *argv) == (1, "", err)


def test_synth_rejects_garbage(capsys):
    code, _, err = run(capsys, "synth", "not a matrix")
    assert code == 2
    assert "parse error" in err


def test_synth_accepts_utf8_root(capsys):
    code, out, _ = run(capsys, "synth", "dim 1/lde 1/√2")
    assert code == 0
    assert out == "n=1 eps\n"


# ---------------------------------------------------------------------------
# normalize


def test_normalize_word(capsys):
    code, out, _ = run(capsys, "normalize", "n=2 H[1,2] H[1,2] X[1,2]", "--kind", "word")
    assert code == 0
    assert out == "n=2 X[1,2]\n"


def test_normalize_term(capsys):
    code, out, _ = run(capsys, "normalize", "had ; swap+ ; had", "--in-type", "1+1")
    assert code == 0
    assert parse_word(out.strip()).n == 2


# ---------------------------------------------------------------------------
# equiv


def test_equiv_squared_hadamard(capsys):
    code, out, _ = run(capsys, "equiv", "had^2", "id")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lhs n=2 eps"
    assert lines[1] == "rhs n=2 eps"
    assert lines[2] == "EQUIV"


def test_equiv_eighth_power(capsys):
    code, out, _ = run(capsys, "equiv", "(had ; swap+)^8", "id")
    assert code == 0
    assert out.splitlines()[-1] == "EQUIV"


def test_equiv_distinct(capsys):
    code, out, _ = run(capsys, "equiv", "had", "swap+")
    assert code == 1
    assert out.splitlines()[-1] == "DISTINCT"


def test_equiv_words(capsys):
    code, out, _ = run(
        capsys, "equiv", "n=2 H[1,2] H[1,2]", "n=2 eps", "--kind", "word"
    )
    assert code == 0
    assert out.splitlines()[-1] == "EQUIV"


def test_equiv_word_dimension_mismatch(capsys):
    code, _, err = run(capsys, "equiv", "n=2 eps", "n=3 eps", "--kind", "word")
    assert code == 2
    assert "dimensions differ" in err


def test_equiv_incompatible_terms(capsys):
    code, _, err = run(capsys, "equiv", "had", "neg1", "--in-type", "1+1")
    assert code == 2
    assert "incompatible" in err


@pytest.mark.parametrize("argv", [
    [" * ".join(["had"] * 12), "id"],  # an inferred source past MAX_DIM
    ["id * id", "id", "--in-type", "(" + "*".join(["(1+1)"] * 30) + ")*0"],
    ["uniti+^201", "uniti+^201", "--in-type", "1"],  # past MAX_NESTING of growth
])
def test_equiv_past_a_budget_is_a_domain_failure(capsys, argv):
    # exit 1 and the error check reports, not the exit 2 of terms that
    # do not type at the source
    code, out, err = run(capsys, "equiv", *argv)
    assert (code, out) == (1, "") and "MAX_" in err
    assert run(capsys, "check", argv[0], *argv[2:]) == (1, "", err)


def test_equiv_checks_normal_forms_against_the_matrices(capsys, monkeypatch):
    # a synthesis that gives one word for distinct matrices must not decide;
    # both runs leave an H, so both matrices are synthesized
    one_word = lambda m: Word(m.n, ())  # noqa: E731
    monkeypatch.setattr(synthesis, "normal_form_word", one_word)
    monkeypatch.setattr(cli, "normal_form_word", one_word)
    code, out, err = run(capsys, "equiv", "had", "swap+ ; had")
    assert (code, out) == (1, "")
    assert err == "error: normal forms disagree with matrix equality\n"


@pytest.mark.parametrize("argv", [
    ["swap+", "id", "--in-type", "1+1"],
    ["had", "swap+ ; had"],
    ["--kind", "word", "n=2 H[1,2]", "n=2 X[1,2] H[1,2]"],
])
def test_equiv_checks_label_words_against_the_labels(capsys, monkeypatch, argv):
    # a label_word that gives one word for every labelling must not decide:
    # two runs that leave no H are checked against their labels, and two
    # that leave an H against matrices that do not go through label_word
    monkeypatch.setattr(words, "label_word", lambda at: [])
    code, out, err = run(capsys, "equiv", *argv)
    assert (code, out) == (1, "")
    assert err == "error: normal forms disagree with matrix equality\n"


def test_a_run_with_no_h_left_is_not_synthesized(capsys, monkeypatch):
    # the H generators of this word cancel in the run
    def no_synthesis(m):
        raise AssertionError("synthesized")

    monkeypatch.setattr(synthesis, "synthesize", no_synthesis)
    monkeypatch.setattr(cli, "synthesize", no_synthesis)
    w, nf = "n=3 H[1,2] X[2,3] H[1,3] Z[2]", "n=3 Z[3] X[2,3]"
    assert run(capsys, "normalize", w, "--kind", "word") == (0, nf + "\n", "")
    code, out, _ = run(capsys, "equiv", w, nf, "--kind", "word")
    assert (code, out) == (0, f"lhs {nf}\nrhs {nf}\nEQUIV\n")


def test_equiv_of_a_run_with_an_h_left_checks_the_matrices(capsys, monkeypatch):
    # relation f1: _run cancels no H of its left side, so both sides are
    # evaluated and synthesized, and the verdict is checked on the matrices
    calls = []
    real = synthesis.normal_form_word

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(synthesis, "normal_form_word", counted)
    lhs = "n=4 " + " ".join(["H[1,2] H[3,4] H[1,3] H[2,4]"] * 2)
    code, out, _ = run(capsys, "equiv", lhs, "n=4 eps", "--kind", "word")
    assert (code, out) == (0, "lhs n=4 eps\nrhs n=4 eps\nEQUIV\n")
    assert [m.is_identity() for m in calls] == [True, True]


def test_equiv_walks_each_term_once(capsys, monkeypatch):
    walks = []

    class CountingWalk(lang._Walk):
        __slots__ = ()

        def __init__(self, c, *args):
            walks.append(c)
            super().__init__(c, *args)

    monkeypatch.setattr(lang, "_Walk", CountingWalk)
    code, out, _ = run(capsys, "equiv", "had ; neg1 + id", "had", "--in-type", "1+1")
    assert code == 1 and out.endswith("DISTINCT\n")
    assert len(walks) == 2 and walks[0] is not walks[1]


def test_embedding_hpi_in_qpi_walks_once_and_builds_no_matrix(capsys, monkeypatch):
    # the embedding is the identity on terms: typing the source in hpi is
    # its whole check, so no second walk and no matrix
    walks, matrices = [], []

    class CountingWalk(lang._Walk):
        __slots__ = ()

        def __init__(self, c, *args):
            walks.append(c)
            super().__init__(c, *args)

    def counted(*args):
        matrices.append(args)
        return words.program_matrix(*args)

    monkeypatch.setattr(lang, "_Walk", CountingWalk)
    monkeypatch.setattr(cli, "program_matrix", counted)
    code, out, err = run(capsys, "translate", "had ; swap+", "--from", "hpi", "--to", "qpi")
    assert (code, out, err) == (0, "had ; swap+\nverified: semantics preserved\n", "")
    assert (len(walks), len(matrices)) == (1, 0)


def test_long_inline_arguments_are_text(capsys):
    # longer than a path name may be, so asking the file system about it fails
    term = " ; ".join(["had"] * 80)
    assert len(term) >= 300
    code, out, err = run(capsys, "check", term)
    assert (code, out, err) == (0, "src 1+1\ndst 1+1\n", "")
    code, out, err = run(capsys, "equiv", term, "id")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "EQUIV"


# ---------------------------------------------------------------------------
# relations-verify


def test_relations_verify_small_sample(capsys):
    code, out, _ = run(capsys, "relations-verify", "--n", "6", "--max-assignments", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS a1 assignments=6"
    assert lines[-1] == "22 of 22 relations verified (n=6, 0 skipped, 0 failed)"


@pytest.mark.parametrize("args, rejected", [
    (["--max-assignments", "-1"], "--max-assignments"),
    (["--n", "-2"], "--n"),
    (["--n", "0", "--max-assignments", "1"], "--n"),
    (["--n", "9", "--max-assignments", "1"], "--n"),  # one past MAX_RELATIONS_N
], ids=["negative-cap", "negative-n", "zero-n", "n-past-max"])
def test_relations_verify_rejects_out_of_range(capsys, args, rejected):
    # they used to report relations verified having checked nothing
    code, out, err = run(capsys, "relations-verify", *args)
    assert (code, out) == (2, "")
    assert f"argument {rejected}: " in err and "out of range" in err
    assert cli.MAX_RELATIONS_N == 8


@pytest.mark.parametrize("count", ["\u0663", "+3", "3_0", " 3", "3.0", "1" * 19])
def test_relations_verify_reads_counts_as_ascii_digits(capsys, count):
    # int() takes all but the last; a count option is ASCII digits only
    code, out, err = run(capsys, "relations-verify", "--n", count, "--max-assignments", "1")
    assert (code, out) == (2, "")
    assert f"argument --n: {count!r} " in err


def test_relations_verify_skips_below_arity(capsys):
    code, out, _ = run(capsys, "relations-verify", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert "SKIP d4 needs n >= 6" in lines
    assert "SKIP d3 needs n >= 4" in lines
    assert "SKIP f1 needs n >= 4" in lines
    assert "SKIP f2 needs n >= 4" in lines
    assert lines[-1].endswith("(n=3, 7 skipped, 0 failed)")


def _unsound_b1(monkeypatch):
    # b1 with rhs Z[a]: the rhs drops Z[b], so no instance holds
    rel = words.RELATION_BY_ID["b1"]._replace(rhs=words._toks("Z[a]"))
    monkeypatch.setitem(words.RELATION_BY_ID, "b1", rel)
    monkeypatch.setattr(cli, "CATALOG", tuple(rel if r.id == "b1" else r for r in cli.CATALOG))
    return rel


def _first_failure(rel, n: int) -> str:
    # every instance at dimension n, checked whole, none remembered
    for idx in permutations(range(1, n + 1), len(rel.formals)):
        if not words.verify_relation(rel, idx, n):
            return f"FAIL {rel.id} at " + ",".join(f"{f}={i}" for f, i in zip(rel.formals, idx))
    return "no failure"


def test_relations_verify_decides_each_rank_pattern_once(capsys, monkeypatch):
    # one check per relation at n=4 (21, d4 skipped) in place of 388
    # instances, and a second command repeats every check: no decision
    # outlives the command that made it
    calls = []
    real = cli.verify_relation
    monkeypatch.setattr(cli, "verify_relation", lambda *a: calls.append(a) or real(*a))
    for _ in range(2):
        code, out, _ = run(capsys, "relations-verify", "--n", "4")
        assert code == 0 and out.endswith("(n=4, 1 skipped, 0 failed)\n")
        assert len(calls) == 21
        assert all(n == len(idx) and sorted(idx) == list(range(1, n + 1)) for _, idx, n in calls)
        calls.clear()


def test_relations_verify_reports_an_unsound_entry(capsys, monkeypatch):
    # the sound catalog passes first, so a decision kept past its command
    # would pass the unsound entry
    code, out, _ = run(capsys, "relations-verify", "--n", "4")
    assert (code, out.splitlines()[3]) == (0, "PASS b1 assignments=12")
    rel = _unsound_b1(monkeypatch)
    expected = _first_failure(rel, 4)
    assert expected.startswith("FAIL b1 at ")
    code, out, _ = run(capsys, "relations-verify", "--n", "4")
    assert (code, out.splitlines()[3]) == (1, expected)
    assert out.splitlines()[-1] == "20 of 22 relations verified (n=4, 1 skipped, 1 failed)"
    # and again with the unsound entry checked first
    monkeypatch.setattr(cli, "CATALOG", (rel,) + tuple(r for r in cli.CATALOG if r.id != "b1"))
    code, out, _ = run(capsys, "relations-verify", "--n", "4")
    assert (code, out.splitlines()[0]) == (1, expected)


# ---------------------------------------------------------------------------
# translate


def test_translate_term_to_word(capsys):
    code, out, _ = run(capsys, "translate", "neg1", "--from", "qpi", "--to", "words")
    assert code == 0
    assert out == "n=1 Z[1]\nverified: semantics preserved\n"


@pytest.mark.parametrize(
    "term, word",
    [
        # the two H cancel, and the signs they leave make a swap
        ("had ; id + neg1 ; had", "n=2 X[1,2]"),
        # the swap only relabels; the H reads the labels back as Z[2] H[1,2]
        ("swap+ ; had", "n=2 Z[2] H[1,2]"),
        # H pairs cancel as they are emitted, so the word is one H
        ("had^99999", "n=2 H[1,2]"),
    ],
)
def test_translate_term_to_word_pins(capsys, term, word):
    code, out, _ = run(capsys, "translate", term, "--from", "qpi", "--to", "words")
    assert (code, out) == (0, f"{word}\nverified: semantics preserved\n")


def test_translate_term_to_hadamard(capsys):
    code, out, _ = run(capsys, "translate", "neg1", "--from", "qpi", "--to", "hpi")
    assert code == 0
    assert out == "had ; swap+ ; had\nverified: I1 (+) source\n"


def test_translate_word_to_term(capsys):
    code, out, _ = run(
        capsys, "translate", "n=2 H[1,2]", "--from", "words", "--to", "qpi"
    )
    assert code == 0
    body, tail = out.splitlines()
    assert tail == "verified: semantics preserved"
    parse_term(body)


def test_translate_to_term_alias(capsys):
    code, out, _ = run(
        capsys, "translate", "n=1 Z[1]", "--from", "words", "--to", "term"
    )
    assert code == 0
    assert out.splitlines()[0] == "id ; neg1 ; id"


def test_translate_embedding(capsys):
    code, out, _ = run(capsys, "translate", "had", "--from", "hpi", "--to", "qpi")
    assert code == 0
    assert out == "had\nverified: semantics preserved\n"


# the parent's t_h of (id * id) + (id * id) at 0*1 + 0*(1+1), with the
# factorz of its second clause annotated 1 instead of 1+1: a program on
# zero-dimensional blocks, so its matrix is right whatever its target
WRONG_TARGET_HPI = (
    "assocl+ ; (id + (swap* ; absorb ; id ; factorz ; swap*)) + id ; swap+ + id ;"
    " assocr+ ; id + id + (swap* ; absorb ; id ; factorz ; swap*) ; assocl+ ;"
    " swap+ + id ; assocr+"
)


def test_translate_checks_the_target_type(capsys, monkeypatch):
    source, in_type = "(id * id) + (id * id)", "0*1 + 0*(1+1)"
    code, out, _ = run(capsys, "translate", source, "--from", "qpi", "--to", "hpi",
                       "--in-type", in_type)
    assert code == 0 and "factorz{1+1} ; swap*)" in out
    monkeypatch.setattr(cli, "t_h", lambda c, b: parse_term(WRONG_TARGET_HPI))
    code, out, err = run(capsys, "translate", source, "--from", "qpi", "--to", "hpi",
                         "--in-type", in_type)
    assert (code, out) == (1, "")
    assert err == "error: translation has target type 1+0*1+0*1, not 1+0*1+0*(1+1)\n"
    # an identity with another target, for t_q
    monkeypatch.setattr(cli, "t_q", lambda w: parse_term("uniti*"))
    code, out, err = run(capsys, "translate", "n=2 eps", "--from", "words", "--to", "qpi")
    assert (code, out) == (1, "")
    assert err == "error: translation has target type 1*(1+1), not 1+1\n"


def test_translate_unsupported_direction(capsys):
    code, _, err = run(capsys, "translate", "had", "--from", "words", "--to", "hpi")
    assert code == 2
    assert "unsupported direction" in err


def test_translate_gates_source_language(capsys):
    code, _, err = run(capsys, "translate", "neg1", "--from", "hpi", "--to", "qpi")
    assert code == 2
    assert "neg1 is not in hpi" in err


def test_translate_output_reparses(capsys):
    for argv in (
        ["dist ; id + id * swap+ ; factor", "--from", "qpi", "--to", "hpi",
         "--in-type", "(1+1)*(1+1)"],
        # t_q nests about n levels deep, within MAX_NESTING up to n = 99
        ["n=99 H[1,99] Z[99]", "--from", "words", "--to", "qpi"],
    ):
        code, out, _ = run(capsys, "translate", *argv)
        assert code == 0
        term = parse_term(out.splitlines()[0])
        assert format_term(term) == out.splitlines()[0]


# ---------------------------------------------------------------------------
# derive-check


def test_derive_check_accepts_valid_file(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_text(
        "# cancel the pair, then the flips\n"
        "n=3 H[1,2] H[1,2] X[1,3] X[1,3]\n"
        "step a3 L->R at 0 with a=1,b=2\n"
        "step a2 L->R at 0 with a=1,b=3\n"
        "n=3 eps\n"
    )
    code, out, _ = run(capsys, "derive-check", str(f))
    assert code == 0
    assert out == "ok: 2 steps verified, final word matches\n"


def test_derive_check_trace_prints_each_word(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_text(
        "n=2 H[1,2] H[1,2]\nstep a3 L->R at 0 with a=1,b=2\nn=2 eps\n"
    )
    code, out, _ = run(capsys, "derive-check", str(f), "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2 H[1,2] H[1,2]"
    assert lines[1] == "n=2 eps"


def test_derive_check_rejects_wrong_final_word(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("n=2 H[1,2] H[1,2]\nstep a3 L->R at 0 with a=1,b=2\nn=2 Z[1]\n")
    code, _, err = run(capsys, "derive-check", str(f))
    assert code == 1
    assert "final word differs" in err


def test_derive_check_rejects_non_matching_step(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("n=2 H[1,2] H[1,2]\nstep a1 L->R at 0 with a=1\nn=2 eps\n")
    code, _, err = run(capsys, "derive-check", str(f))
    assert code == 1
    assert "does not match" in err


def test_derive_check_rejects_malformed_file(capsys, tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("step a1 L->R at 0 with a=1\n")
    code, _, err = run(capsys, "derive-check", str(f))
    assert code == 2


@pytest.mark.parametrize("step, message", [
    ("step garbage", "line 2: bad step syntax"),
    ("step q9 L->R at 0 with a=1", "line 2: unknown relation 'q9'"),
    ("step a3 L->R at 0 with a=1,b", "line 2: bad binding 'b'"),
    ("step a3 L->R at 0 with a=1", "line 2: relation a3 needs indices a,b"),
    ("step a3 L->R at 0 with a=1,c=2", "line 2: relation a3 needs indices a,b"),
    # int() reads these as 10, 1 and 2; an index is ASCII digits only
    ("step a3 L->R at 0 with a=1_0,b=2", "line 2: the index a is not a natural number"),
    ("step a3 L->R at 0 with a=+1,b=2", "line 2: the index a is not a natural number"),
])
def test_derive_check_malformed_step_is_a_parse_error(capsys, step, message):
    code, out, err = run(capsys, "derive-check", f"n=2 H[1,2] H[1,2]\n{step}\nn=2 eps")
    assert (code, out, err) == (2, "", f"error: parse error: {message}\n")


def test_derive_check_parse_errors_name_the_file_line(capsys):
    # comments and blank lines count: the bad step is line 5 of the file
    text = "# a comment\nn=2 H[1,2] H[1,2]\n\n# another\nstep zz\nn=2 eps\n"
    code, out, err = run(capsys, "derive-check", text)
    assert (code, out, err) == (2, "", "error: parse error: line 5: bad step syntax\n")


@pytest.mark.parametrize("step, message", [
    ("step a1 L->R at 0 with a=1", "step 1: relation a1 L->R does not match at 0"),
    ("step a3 L->R at 5 with a=1,b=2", "step 1: position 5 out of range"),
    ("step a3 L->R at 0 with a=1,b=9", "step 1: indices must lie in 1..2: [1, 9]"),
])
def test_derive_check_failures_name_their_step(capsys, step, message):
    code, out, err = run(capsys, "derive-check", f"n=2 H[1,2] H[1,2]\n{step}\nn=2 eps")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_derive_check_reports_a_semantics_change(capsys, monkeypatch):
    monkeypatch.setattr(words, "apply_step", lambda w, step: Word(w.n, w.gens + (gen_h(1, 2),)))
    code, out, err = run(capsys, "derive-check", "n=2 eps\nstep a3 L->R at 0 with a=1,b=2\nn=2 eps")
    assert (code, out, err) == (1, "", "error: step 1: changed the semantics\n")


def test_derive_check_fails_at_the_unsound_step(capsys, monkeypatch):
    _unsound_b1(monkeypatch)
    text = (
        "n=3 H[1,2] H[1,2] Z[1] Z[3]\n"
        "step a3 L->R at 0 with a=1,b=2\n"
        "step b1 L->R at 0 with a=1,b=3\n"
        "step a1 R->L at 1 with a=3\n"
        "n=3 Z[1] Z[3] Z[3]\n"
    )
    code, out, err = run(capsys, "derive-check", text)
    assert (code, out, err) == (1, "", "error: step 2: changed the semantics\n")


NINES = "9" * 5000  # past the 4,300 digits that int() converts


@pytest.mark.parametrize("argv, message", [
    (["normalize", f"n=3 Z[{NINES}]", "--kind", "word"], "a generator index"),
    (["equiv", "n=3 eps", f"n=3 H[1,{NINES}]", "--kind", "word"], "a generator index"),
    (["derive-check", f"n=2 eps\nstep a3 L->R at {NINES} with a=1,b=2\nn=2 eps"],
     "line 2: the position"),
    (["derive-check", f"n=2 eps\nstep a3 L->R at 0 with a=1,b={NINES}\nn=2 eps"],
     "line 2: the index b"),
])
def test_long_integer_tokens_are_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: parse error: {message} has more than 18 digits\n")


# ---------------------------------------------------------------------------
# plumbing


def test_missing_arguments_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["equiv", "had"])
    assert e.value.code == 2


@pytest.fixture
def fresh_parser():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_is_built_once_per_process(capsys, monkeypatch, fresh_parser):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "sem", "had")[0] == 0
    first = len(built)
    for argv in (["check", "had"], ["equiv", "had", "id"], ["sem", "had", "--float"],
                 ["equiv", "had"]):
        run(capsys, *argv)
    assert built.count("hadpi") == 1 and len(built) == first


def test_calls_share_no_state(capsys, fresh_parser):
    calls = [
        ["equiv", "had"],  # usage error
        ["check", "had ; neg1 + id", "--lang", "pi"],
        ["check", "had ; neg1 + id"],  # back to the default qpi
        ["sem", "had", "--float"],
        ["sem", "had"],  # no float block
        ["relations-verify", "--n", "3"],
        ["relations-verify", "--n", "4", "--max-assignments", "2"],
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert shared == alone
    codes = [code for code, _, _ in shared]
    assert codes == [2, 2, 0, 0, 0, 0, 0]
    assert "float" in shared[3][1] and "float" not in shared[4][1]
    assert shared[5][1].splitlines()[-1].endswith("(n=3, 7 skipped, 0 failed)")
    assert "PASS b2 assignments=2" in shared[6][1].splitlines()


def test_module_entry_point(pkg_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hadpi.cli", "sem", "had"],
        capture_output=True, text=True, env=pkg_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("dim 2")


# ---------------------------------------------------------------------------
# fuzz: every argv ends in exit 0, 1 or 2, promptly

CALL_SECONDS = 10  # generous: the slowest drawn call takes well under a second

PRIMS = sorted(lang.primitives("qpi")) + ["factorz", "factorz{1+1}"]
TERMS = ["had ; neg1 + id", "(had ; swap+)^8", "dist ; id + id * swap+ ; factor",
         "had + had", "uniti+ ; unite+ ; had", "swap* ; had * neg1 ; swap*", "had * had",
         " * ".join(["had"] * 12)]  # its inferred source is past MAX_DIM
TYPES = ["0", "1", "1+1", "1+1+1", "(1+1)*(1+1)", "(1+1)*0", "1*(1+1)", "0+1",
         "*".join(["(1+1)"] * 11),  # past MAX_DIM
         "(" + "*".join(["(1+1)"] * 30) + ")*0"]  # with a factor past MAX_DIM
WORDS = ["n=1 Z[1]", "n=2 H[1,2] X[1,2]", "n=3 H[2,3] Z[1]", "n=2 eps", "n=0 eps",
         "n=3 H[3,1]", "n=2 X[1,3]", "n=2 Q[1]", "n=x eps",
         "n=20000 eps",  # past MAX_DIM
         f"n=3 Z[{NINES}]"]  # past what int() converts
MATRICES = ["dim 2/lde 1/1 1/1 -1", "dim 1/lde 0/1", "dim 2/lde 0/0 1/1 0",
            "dim 2/lde 0/1 1/0 1", "dim 1/lde 1/√2", "dim 2/lde 0/1 0", "dim -1/lde 0",
            "dim 20000/lde 0/" + "/".join(["1"] * 20000)]  # past MAX_DIM
JUNK = ["(", ")", ";", "+", "*", "^", "{", "}", "0", "1", "2", "x", "", "--", "-h"]


def _deep_text(shape: str, past_limit: int) -> str:
    term_or_type = _nested(shape, lang.MAX_NESTING + past_limit)
    return term_or_type[-1] if shape == "type-parens" else term_or_type[1]


@st.composite
def _term_texts(draw):
    term = st.recursive(
        st.sampled_from(PRIMS),
        lambda t: st.one_of(
            st.tuples(t, st.sampled_from([" ; ", " + ", " * "]), t).map("".join),
            st.tuples(t, st.sampled_from([0, 1, 2, 3, 150, 2000])).map(
                lambda p: f"({p[0]})^{p[1]}"
            ),
            t.map(lambda s: f"({s})"),
        ),
        max_leaves=6,
    )
    nests = st.builds(
        _deep_text, st.sampled_from(NEST_SHAPES[:3]), st.integers(-2, 100)
    )
    powers = st.sampled_from([
        "had^99999999", "had^1000^1000^1000", "(had ; swap+)^50001",
        "had^" + "9" * 5000, "id^0", "neg1 ; uniti+^2000", "had ; uniti*^2000",
    ])
    soup = st.lists(st.sampled_from(PRIMS + JUNK), max_size=8).map(" ".join)
    return draw(st.one_of(st.sampled_from(TERMS), term, nests, powers, soup))


_type_texts = st.one_of(
    st.sampled_from(TYPES),
    st.builds(_deep_text, st.just("type-parens"), st.integers(-2, 100)),
    st.lists(st.sampled_from(["0", "1", "+", "*", "(", ")", "x"]), max_size=6).map("".join),
)


def _typed(draw, argv):
    if draw(st.booleans()):
        argv += ["--in-type", draw(_type_texts)]
    if draw(st.booleans()):
        argv += ["--lang", draw(st.sampled_from(["pi", "qpi", "hpi", "q"]))]
    return argv


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from([
        "check", "sem", "synth", "normalize", "equiv", "relations-verify",
        "translate", "derive-check", "junk",
    ]))
    word = st.sampled_from(WORDS)
    if cmd in ("check", "sem"):
        argv = _typed(draw, [cmd, draw(_term_texts())])
        if cmd == "sem" and draw(st.booleans()):
            argv.append("--float")
    elif cmd == "synth":
        argv = ["synth", draw(st.sampled_from(MATRICES))]
        if draw(st.booleans()):
            argv.append("--trace")
    elif cmd in ("normalize", "equiv"):
        arity = 1 if cmd == "normalize" else 2
        if draw(st.booleans()):
            argv = [cmd, *(draw(word) for _ in range(arity)), "--kind", "word"]
        else:
            argv = _typed(draw, [cmd, *(draw(_term_texts()) for _ in range(arity))])
    elif cmd == "relations-verify":
        # always capped: a full enumeration at n = 8 takes seconds
        counts = st.sampled_from(["-2", "0", "1", "3", "4", "8", "9", "1000000000", "x"])
        argv = [cmd, "--n", draw(counts), "--max-assignments",
                draw(st.sampled_from(["-1", "1", "2"]))]
    elif cmd == "translate":
        text = draw(st.one_of(word, _term_texts()))
        argv = [cmd, text, "--from", draw(st.sampled_from(["qpi", "hpi", "words", "pi"])),
                "--to", draw(st.sampled_from(["qpi", "hpi", "words", "term"]))]
        if draw(st.booleans()):
            argv += ["--in-type", draw(_type_texts)]
    elif cmd == "derive-check":
        step = draw(st.sampled_from([
            "step a3 L->R at 0 with a=1,b=2", "step a1 L->R at 5 with a=9", "step z",
            f"step a3 L->R at {NINES} with a=1,b=2",
        ]))
        argv = [cmd, f"{draw(word)}\n{step}\n{draw(word)}"]
    else:
        argv = draw(st.lists(st.sampled_from(JUNK + PRIMS + ["check", "--n"]), max_size=5))
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def fuzz_main(argv):
    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran past the {CALL_SECONDS} s budget")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
    assert code in (0, 1, 2), argv


def test_main_fuzz_keeps_the_exit_code_contract(pkg_env):
    # one child runs every example, so they share one parser as a session does
    proc = bounded_child(pkg_env, "import test_cli\ntest_cli.fuzz_main()", timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
