"""Command-line interface: output formats and exit codes."""

import subprocess
import sys

import pytest

from hadpi.cli import main
from hadpi.lang import format_term, parse_term
from hadpi.linalg import format_matrix
from hadpi.words import parse_word, word_sem


def run(capsys, *argv):
    code = main(list(argv))
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
    assert "at seq.snd" in err and "swap*" in err


def test_check_language_gate_is_a_parse_error(capsys):
    code, _, err = run(capsys, "check", "neg1", "--lang", "hpi")
    assert code == 2
    assert "neg1 is not in hpi" in err
    code, _, err = run(capsys, "check", "had", "--lang", "pi")
    assert code == 2


def test_check_infers_source(capsys):
    code, out, _ = run(capsys, "check", "had ; neg1 + id")
    assert code == 0
    assert out == "src 1+1\ndst 1+1\n"


def test_check_bad_syntax(capsys):
    code, _, err = run(capsys, "check", "had ;")
    assert code == 2
    assert "parse error" in err


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
    matrix = format_matrix(word_sem(parse_word("n=3 H[1,2] X[2,3] H[1,3] Z[2]")))
    code, plain, _ = run(capsys, "synth", matrix)
    assert code == 0 and len(calls) == 1
    code, traced, _ = run(capsys, "synth", matrix, "--trace")
    assert code == 0 and len(calls) == 2
    assert traced.startswith(plain)
    assert traced.splitlines()[1].startswith("# initial level")


def test_synth_rejects_non_orthogonal(capsys):
    code, _, err = run(capsys, "synth", "dim 2/lde 0/1 1/0 1")
    assert code == 1
    assert "orthogonal" in err


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


def test_relations_verify_skips_below_arity(capsys):
    code, out, _ = run(capsys, "relations-verify", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert "SKIP d4 needs n >= 6" in lines
    assert "SKIP d3 needs n >= 4" in lines
    assert "SKIP f1 needs n >= 4" in lines
    assert "SKIP f2 needs n >= 4" in lines
    assert lines[-1].endswith("(n=3, 7 skipped, 0 failed)")


# ---------------------------------------------------------------------------
# translate


def test_translate_term_to_word(capsys):
    code, out, _ = run(capsys, "translate", "neg1", "--from", "qpi", "--to", "words")
    assert code == 0
    assert out == "n=1 Z[1]\nverified: semantics preserved\n"


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


def test_translate_unsupported_direction(capsys):
    code, _, err = run(capsys, "translate", "had", "--from", "words", "--to", "hpi")
    assert code == 2
    assert "unsupported direction" in err


def test_translate_gates_source_language(capsys):
    code, _, err = run(capsys, "translate", "neg1", "--from", "hpi", "--to", "qpi")
    assert code == 2
    assert "neg1 is not in hpi" in err


def test_translate_output_reparses(capsys):
    code, out, _ = run(
        capsys, "translate", "dist ; id + id * swap+ ; factor",
        "--from", "qpi", "--to", "hpi", "--in-type", "(1+1)*(1+1)",
    )
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


# ---------------------------------------------------------------------------
# plumbing


def test_missing_arguments_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["equiv", "had"])
    assert e.value.code == 2


def test_module_entry_point(pkg_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hadpi.cli", "sem", "had"],
        capture_output=True, text=True, env=pkg_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("dim 2")
