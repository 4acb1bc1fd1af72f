"""Load-bearing invariants hold under python -O, which strips asserts."""

import subprocess
import sys

SCRIPT = """
import hadpi.words as words
from hadpi.linalg import ExactMatrix, LinAlgError, gen_h
from hadpi.words import DerivationStep, StepError, Word, check_derivation

assert False, "asserts are on"

for bad in [(2, 0, [1, 0, 0], [0, 0, 0, 0]), (1, -1, [1], [0])]:
    try:
        ExactMatrix(*bad)
    except LinAlgError:
        pass
    else:
        raise SystemExit(f"ExactMatrix{bad} was accepted")

# a rewrite that appends a Hadamard changes the matrix
words.apply_step = lambda w, step: Word(w.n, w.gens + (gen_h(1, 2),))
step = DerivationStep("a3", "L->R", (1, 2), 0)
try:
    check_derivation(Word(2, ()), [step], Word(2, ()))
except StepError as exc:
    print(exc)
else:
    raise SystemExit("check_derivation accepted a semantics change")
"""


def test_invariants_survive_optimize_flag(pkg_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=pkg_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "step 1: changed the semantics\n"
