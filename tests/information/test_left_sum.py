"""The scalar reductions the array kernels mirror are strict left folds.

Since Python 3.12 the built-in ``sum`` of floats compensates rounding
error (Neumaier summation), while the kernels of ``repro.perf.kernels``
replay a plain left-to-right fold.  ``left_sum`` is that fold on every
interpreter; the normalizer of ``DiscreteDistribution`` and its scalar
entropy go through it.  These checks need no numpy: 40 outcomes stay
below the array kernels' support threshold.
"""

import math
import random

import pytest

from repro.information.distribution import (
    DiscreteDistribution,
    left_sum,
    scalar_entropy,
)


def explicit_fold(values):
    total = 0
    for value in values:
        total += value
    return total


def weights(seed):
    rng = random.Random(seed)
    return {i: rng.random() + 1e-3 for i in range(40)}


@pytest.mark.parametrize("seed", range(5))
def test_left_sum_is_the_left_fold(seed):
    values = list(weights(seed).values())
    assert left_sum(values) == explicit_fold(values)
    assert left_sum(iter(values)) == explicit_fold(values)


@pytest.mark.parametrize("seed", range(5))
def test_normalizer_is_the_left_fold(seed):
    probs = weights(seed)
    scale = 1.0 / explicit_fold(probs.values())
    dist = DiscreteDistribution(probs, normalize=True)
    assert list(dist.items()) == [(o, p * scale) for o, p in probs.items()]


@pytest.mark.parametrize("seed", range(5))
def test_entropy_is_the_left_fold(seed):
    dist = DiscreteDistribution(weights(seed), normalize=True)
    values = [p for _o, p in dist.items()]
    expected = -explicit_fold(p * math.log2(p) for p in values)
    assert dist.entropy() == expected
    assert scalar_entropy(values) == expected


def test_left_sum_keeps_sum_semantics():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum([1, 2, 3]) == 6
    assert left_sum([0.1] * 10) == explicit_fold([0.1] * 10)
