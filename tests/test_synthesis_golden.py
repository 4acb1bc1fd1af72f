"""Golden normal forms: synthesis output must stay token-identical.

Each case names a random word by (n, length, seed); the data file holds
the least denominator exponent of its matrix, the sha256 of the formatted
normal form and its generator count.  Regenerate the file only when the
canonical words are meant to change:

    PYTHONPATH=src python tests/test_synthesis_golden.py

The command prints n/length/seed and the old -> new generator count of
every case whose normal form changed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from hadpi.linalg import ExactMatrix, gen_h, gen_x, gen_z
from hadpi.synthesis import normal_form_word
from hadpi.words import Word, format_word, word_sem

DATA = Path(__file__).with_name("synthesis_golden.json")

# (n, word length, seed); the last case is an n=16 matrix with lde 14
CASES = [
    (n, length, seed)
    for n in range(4, 17)
    for length, seed in (
        (2 * n, 11 * n),
        (5 * n, 11 * n + 1),
        (8 * n if n <= 10 else 6 * n, 11 * n + 2),
    )
] + [(16, 160, 1)]


def golden_word(n: int, length: int, seed: int) -> Word:
    rng = random.Random(seed)
    gens = []
    for _ in range(length):
        kind = rng.choice("ZXH")
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            b, c = sorted(rng.sample(range(1, n + 1), 2))
            gens.append(gen_x(b, c) if kind == "X" else gen_h(b, c))
    return Word(n, tuple(gens))


def golden_case(n: int, length: int, seed: int) -> tuple[ExactMatrix, Word, dict]:
    """The case's matrix, its normal form and the data-file entry they give."""
    M = word_sem(golden_word(n, length, seed))
    nf = normal_form_word(M)
    entry = {
        "n": n,
        "length": length,
        "seed": seed,
        "lde": M.k,
        "sha256": hashlib.sha256(format_word(nf).encode()).hexdigest(),
        "gens": len(nf.gens),
    }
    return M, nf, entry


def test_corpus_covers_the_cases():
    entries = json.loads(DATA.read_text())
    assert [(e["n"], e["length"], e["seed"]) for e in entries] == CASES
    assert {e["n"] for e in entries} == set(range(4, 17))
    assert any(e["n"] == 16 and e["lde"] >= 13 for e in entries)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-len{}-seed{}".format(*c))
def test_normal_form_matches_golden(case):
    golden = {(e["n"], e["length"], e["seed"]): e for e in json.loads(DATA.read_text())}
    M, nf, entry = golden_case(*case)
    assert word_sem(nf) == M
    assert len(nf.gens) == golden[case]["gens"]
    assert entry == golden[case]


def regenerate() -> None:
    """Rewrite the data file, naming every case whose normal form changed."""
    old = {(e["n"], e["length"], e["seed"]): e for e in json.loads(DATA.read_text())}
    entries = []
    for case in CASES:
        M, nf, e = golden_case(*case)
        name = "n={} length={} seed={}".format(*case)
        if word_sem(nf) != M:
            raise SystemExit(f"{name}: the normal form's matrix differs from the case's")
        entries.append(e)
        before = old.get(case)
        if before is None or before["sha256"] != e["sha256"]:
            was = "new" if before is None else before["gens"]
            print(f"{name}: gens {was} -> {e['gens']}")
    DATA.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
