"""The committed mutation matrix matches the mutants and the checker.

``benchmarks/results/MUTATION_MATRIX.json`` records, per protocol
mutant the suite builds, the test that kills it and the static rules
that flag it; ``tests/mutation_matrix.py`` regenerates it (and fails if
a mutant no longer applies to its method).
"""

import json

from mutation_matrix import MATRIX, build_matrix


def test_committed_matrix_is_current():
    committed = json.loads(MATRIX.read_text())
    fresh = build_matrix()
    for matrix in (committed, fresh):
        matrix.pop("checker_wall_s")
    assert committed == fresh
