"""Golden normal forms: synthesis output must stay token-identical.

Each case names a random word by (n, length, seed); the data file holds
the least denominator exponent of its matrix and the sha256 of the
formatted normal form.  Regenerate the file only when the canonical words
are meant to change:

    PYTHONPATH=src python tests/test_synthesis_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from hadpi.linalg import gen_h, gen_x, gen_z
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


def golden_entry(n: int, length: int, seed: int) -> dict:
    M = word_sem(golden_word(n, length, seed))
    nf = format_word(normal_form_word(M)).encode()
    return {
        "n": n,
        "length": length,
        "seed": seed,
        "lde": M.k,
        "sha256": hashlib.sha256(nf).hexdigest(),
    }


def test_corpus_covers_the_cases():
    entries = json.loads(DATA.read_text())
    assert [(e["n"], e["length"], e["seed"]) for e in entries] == CASES
    assert {e["n"] for e in entries} == set(range(4, 17))
    assert any(e["n"] == 16 and e["lde"] >= 13 for e in entries)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-len{}-seed{}".format(*c))
def test_normal_form_matches_golden(case):
    golden = {(e["n"], e["length"], e["seed"]): e for e in json.loads(DATA.read_text())}
    assert golden_entry(*case) == golden[case]


if __name__ == "__main__":
    DATA.write_text(json.dumps([golden_entry(*case) for case in CASES], indent=1) + "\n")
