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

# a syllable that fixes column 2 but also flips the done column 3
from hadpi.linalg import Generator, RowState
from hadpi.synthesis import SynthesisError, synthesize

apply_word = RowState.apply_word
def append_z3(self, gens):
    gens.append(Generator("Z", (3,)))
    apply_word(self, gens)
RowState.apply_word = append_z3
try:
    synthesize(ExactMatrix(3, 0, [0, -1, 0, 1, 0, 0, 0, 0, 1], [0] * 9))
except SynthesisError as exc:
    if "did not lower the level" not in str(exc):
        raise SystemExit(f"the wrong check fired: {exc}")
else:
    raise SystemExit("synthesize accepted a syllable that disturbs a fixed column")
RowState.apply_word = apply_word

# a synthesis that gives one word for distinct matrices: equiv must not decide
import hadpi.synthesis as synthesis
from hadpi.cli import main

normal_form_word = synthesis.normal_form_word
synthesis.normal_form_word = lambda m: Word(m.n, ())
if main(["equiv", "had", "swap+"]) != 1:
    raise SystemExit("equiv decided on normal forms that disagree with the matrices")
synthesis.normal_form_word = normal_form_word

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
