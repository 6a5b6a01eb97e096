"""Corpus mutants against the oracle (`tests/mutants.py`): a few seeds
here; the script runs hundreds."""

import pytest

import mutants

# Seeds 0-23 take about 3 s.  They include mutants on which a stage that
# hides the labels a later group synchronizes on, or a subset
# construction that turns only the subset {pi} into pi, gives a wrong
# verdict.
SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_mutants_agree_with_the_oracle(seed):
    name, text, made = mutants.mutant(seed)
    runs, failures = mutants.check(text, seed)
    assert runs >= 11
    assert not failures, (name, made, failures)
