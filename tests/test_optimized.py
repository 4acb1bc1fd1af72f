"""Load-bearing invariants hold under python -O, which strips asserts."""

import subprocess
import sys

SCRIPT = """
import hadpi.words as words
from hadpi.linalg import ExactMatrix, LinAlgError, gen_h, gen_x, gen_z
from hadpi.words import DerivationStep, StepError, Word, replay

assert False, "asserts are on"

for bad in [(2, 0, [1, 0, 0], [0, 0, 0, 0]), (1, -1, [1], [0])]:
    try:
        ExactMatrix(*bad)
    except LinAlgError:
        pass
    else:
        raise SystemExit(f"ExactMatrix{bad} was accepted")

# a reversed Hadamard, a degenerate swap and a zero index
for make, args in [(gen_h, (2, 1)), (gen_x, (1, 1)), (gen_z, (0,))]:
    try:
        make(*args)
    except LinAlgError:
        pass
    else:
        raise SystemExit(f"{make.__name__}{args} was accepted")

# a swap that also flips row 2, so the column the syllable fixes ends as
# -e_2; one that flips row 3, which disturbs the done column 3; and a
# syllable that names Z[3], the done column, where it should name Z[1],
# while its rows take both flips
import hadpi.synthesis as synthesis
from hadpi.linalg import Generator, apply_generator_rows
from hadpi.synthesis import SynthesisError, synthesize

def swap_flips(row):
    def faulty(g, ks, ra, rb):
        apply_generator_rows(g, ks, ra, rb)
        if g.kind == "X":
            apply_generator_rows(Generator("Z", (row,)), ks, ra, rb)
    return faulty

def z_flips_row_1(g, ks, ra, rb):
    apply_generator_rows(g, ks, ra, rb)
    if g.kind == "Z":
        apply_generator_rows(Generator("Z", (1,)), ks, ra, rb)

gen_z = synthesis.gen_z
for z, faulty, check in [
    (gen_z, swap_flips(2), "did not lower the level"),
    (gen_z, swap_flips(3), "did not reach identity"),
    (lambda a: Generator("Z", (3,)), z_flips_row_1, "did not lower the level"),
]:
    synthesis.gen_z, synthesis.apply_generator_rows = z, faulty
    try:
        synthesize(ExactMatrix(3, 0, [0, -1, 0, 1, 0, 0, 0, 0, 1], [0] * 9))
    except SynthesisError as exc:
        if check not in str(exc):
            raise SystemExit(f"the wrong check fired: {exc}")
    else:
        raise SystemExit(f"synthesize accepted a fault ({check})")
synthesis.gen_z, synthesis.apply_generator_rows = gen_z, apply_generator_rows

# a synthesis that gives one word for distinct matrices, and a label word
# that gives one word for distinct labellings: equiv must not decide, also
# where both runs leave an H and the matrices are built apart from them
from hadpi.cli import main

normal_form_word = synthesis.normal_form_word
synthesis.normal_form_word = lambda m: Word(m.n, ())
if main(["equiv", "had", "swap+ ; had"]) != 1:
    raise SystemExit("equiv decided on normal forms that disagree with the matrices")
synthesis.normal_form_word = normal_form_word
label_word = words.label_word
words.label_word = lambda at: []
for argv in (
    ["swap+", "id", "--in-type", "1+1"],
    ["had", "swap+ ; had"],
    ["--kind", "word", "n=2 H[1,2]", "n=2 X[1,2] H[1,2]"],
):
    if main(["equiv", *argv]) != 1:
        raise SystemExit(f"equiv decided {argv} on label words that lose the labels")
words.label_word = label_word

# a rewrite that appends a Hadamard changes the matrix
words.apply_step = lambda w, step: Word(w.n, w.gens + (gen_h(1, 2),))
step = DerivationStep("a3", "L->R", (1, 2), 0)
try:
    list(replay(Word(2, ()), [step]))
except StepError as exc:
    print(exc)
else:
    raise SystemExit("replay accepted a semantics change")
"""


def test_invariants_survive_optimize_flag(pkg_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=pkg_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "step 1: changed the semantics\n"
