"""Synthesis survey: normal forms of larger random words.

For n = 16..64 in steps of 8 and seeds 1-8, synthesizes the matrix of
golden_word(n, 4n, seed) (the generator of tests/test_synthesis_golden.py)
and prints, per word, the syllable count, the length of the trace word
(the syllables inverted in turn), the length of the normal form read off
it, and the seconds that synthesis and the reading took; or REFUSED when
the synthesis budget (MAX_SYLLABLES) refuses the word.  Every normal form
is checked against its matrix.  pytest does not collect this file; run it
from the root of the repository:

    PYTHONPATH=src python tests/synthesis_survey.py

tests/synthesis_survey.txt holds its output with the timings stripped, and
CI compares a fresh run against it:

    PYTHONPATH=src python tests/synthesis_survey.py \
        | sed -E 's/ seconds=[0-9.]+$//; s/ after [0-9.]+ s$//' \
        | diff tests/synthesis_survey.txt -

Regenerate that file only when the normal forms or the refusals are meant
to change.
"""

from __future__ import annotations

import sys
import time

from test_synthesis_golden import golden_word

from hadpi.synthesis import SynthesisBudgetError, _trace_word, synthesize
from hadpi.words import word_sem

SIZES = range(16, 65, 8)
SEEDS = range(1, 9)


def main() -> int:
    totals = [0, 0, 0]  # syllables, trace-word and normal-form generators
    refused = 0
    for n in SIZES:
        for seed in SEEDS:
            M = word_sem(golden_word(n, 4 * n, seed))
            start = time.perf_counter()
            try:
                trace = synthesize(M)
            except SynthesisBudgetError:
                refused += 1
                print(f"n={n} seed={seed} REFUSED after {time.perf_counter() - start:.2f} s")
                continue
            nf = _trace_word(trace)
            seconds = time.perf_counter() - start
            if word_sem(nf) != M:
                print(f"n={n} seed={seed}: the normal form's matrix differs from the word's")
                return 1
            sizes = (len(trace.syllables), sum(len(s.gens) for s in trace.syllables), len(nf.gens))
            totals = [t + s for t, s in zip(totals, sizes)]
            print(
                f"n={n} seed={seed} syllables={sizes[0]} trace_gens={sizes[1]}"
                f" nf_gens={sizes[2]} seconds={seconds:.3f}"
            )
    print(
        f"total: {len(SIZES) * len(SEEDS) - refused} synthesized, {refused} refused;"
        f" syllables={totals[0]} trace_gens={totals[1]} nf_gens={totals[2]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
