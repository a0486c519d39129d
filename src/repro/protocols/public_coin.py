"""Public randomness in the blackboard model.

Section 3 allows players to use "private and public randomness".  The
core :class:`~repro.core.model.Protocol` interface folds *private* coins
into per-message distributions; public coins are modeled here as a
mixture: a public random index ``R`` (free — it is shared before any
communication) selects one private-coin protocol from a finite family.

For analysis, the external observer also sees ``R``, so

.. math::
    I(\\Pi, R; X) = I(R; X) + I(\\Pi; X \\mid R)
                 = \\sum_r \\Pr[R = r]\\; I(\\Pi_r; X),

i.e. information/error/communication all average over the mixture —
implemented by :func:`mixture_information_cost`,
:func:`mixture_error`, and :func:`mixture_expected_communication`.

As the canonical public-coin example (from the textbook the paper cites,
Kushilevitz–Nisan [22]) we provide :func:`equality_mixture`: two players
compare ``n``-bit strings by exchanging ``t`` public random inner-product
hashes, achieving error :math:`2^{-t}` with ``t + 1`` bits of
communication — exponentially below the deterministic :math:`n`-bit cost,
and with information cost at most ``t + 1``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Sequence, Tuple

from ..information.distribution import BIT_POINT_MASSES, DiscreteDistribution
from ..core.analysis import (
    distributional_error,
    expected_communication,
    external_information_cost,
)
from ..core.model import Protocol, Transcript
from ..core.runner import ProtocolRun, run_protocol
from .functional import FunctionalProtocol

__all__ = [
    "ProtocolMixture",
    "mixture_information_cost",
    "mixture_error",
    "mixture_expected_communication",
    "equality_mixture",
]


class ProtocolMixture:
    """A public-coin protocol: a distribution over private-coin protocols.

    The public index is drawn before communication starts and is free
    (standard in the model); every quantity of interest is the mixture
    average of the component quantities.
    """

    def __init__(self, components: Sequence[Tuple[float, Protocol]]) -> None:
        if not components:
            raise ValueError("a mixture needs at least one component")
        total = sum(weight for weight, _ in components)
        if total <= 0:
            raise ValueError("mixture weights must have positive total")
        players = {p.num_players for _, p in components}
        if len(players) != 1:
            raise ValueError("all components must have the same player count")
        self._components: List[Tuple[float, Protocol]] = [
            (weight / total, protocol) for weight, protocol in components
        ]
        self._num_players = players.pop()

    @property
    def num_players(self) -> int:
        return self._num_players

    @property
    def components(self) -> List[Tuple[float, Protocol]]:
        return list(self._components)

    def sample_component(self, rng: random.Random) -> Protocol:
        """Draw the public coins: pick a component protocol."""
        u = rng.random()
        cumulative = 0.0
        for weight, protocol in self._components:
            cumulative += weight
            if u < cumulative:
                return protocol
        return self._components[-1][1]

    def run(
        self,
        inputs: Sequence[Any],
        rng: random.Random,
    ) -> ProtocolRun:
        """Sample public coins, then execute the selected component."""
        protocol = self.sample_component(rng)
        return run_protocol(protocol, inputs, rng=rng)


def mixture_information_cost(
    mixture: ProtocolMixture, input_dist: DiscreteDistribution
) -> float:
    """:math:`I(\\Pi, R; X) = \\sum_r \\Pr[R=r] I(\\Pi_r; X)` in bits."""
    return sum(
        weight * external_information_cost(protocol, input_dist)
        for weight, protocol in mixture.components
    )


def mixture_error(
    mixture: ProtocolMixture,
    input_dist: DiscreteDistribution,
    evaluate: Callable[[Sequence[Any]], Any],
) -> float:
    """Exact distributional error of the public-coin protocol."""
    return sum(
        weight * distributional_error(protocol, input_dist, evaluate)
        for weight, protocol in mixture.components
    )


def mixture_expected_communication(
    mixture: ProtocolMixture, input_dist: DiscreteDistribution
) -> float:
    """Exact expected communication of the public-coin protocol."""
    return sum(
        weight * expected_communication(protocol, input_dist)
        for weight, protocol in mixture.components
    )


# ----------------------------------------------------------------------
# Equality via public inner-product hashes (Kushilevitz–Nisan [22]).
# ----------------------------------------------------------------------
def equality_mixture(n: int, t: int) -> ProtocolMixture:
    """Two-player EQUALITY on ``n``-bit strings with ``t`` public hashes.

    Public randomness: ``t`` uniform vectors :math:`r_1, \\ldots, r_t
    \\in \\{0,1\\}^n`.  Alice writes the ``t`` inner products
    :math:`\\langle x, r_j \\rangle \\bmod 2`; Bob writes 1 iff his own
    inner products all match.  For :math:`x \\ne y` each hash detects the
    difference with probability 1/2, so the error is :math:`2^{-t}`;
    communication is always ``t + 1`` bits.

    The mixture enumerates all :math:`2^{nt}` hash tuples, so keep
    ``n * t`` small for exact analysis (sampling-based use has no limit:
    draw a component instead of enumerating).
    """
    if n < 1 or t < 1:
        raise ValueError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    if n * t > 16:
        raise ValueError(
            "exact mixture enumeration needs n*t <= 16; use "
            "sample_component for larger parameters"
        )
    components: List[Tuple[float, Protocol]] = []
    count = 1 << (n * t)
    for packed in range(count):
        hashes = [
            (packed >> (j * n)) & ((1 << n) - 1) for j in range(t)
        ]
        components.append((1.0 / count, _equality_component(n, hashes)))
    return ProtocolMixture(components)


def _equality_component(n: int, hashes: Sequence[int]) -> Protocol:
    """The deterministic equality protocol for one fixed hash tuple."""
    t = len(hashes)

    def inner_products(mask: int) -> str:
        return "".join(
            str(bin(mask & r).count("1") % 2) for r in hashes
        )

    def next_speaker(board: Transcript):
        if len(board) == 0:
            return 0
        if len(board) == 1:
            return 1
        return None

    def message_distribution(player, player_input, board):
        mask = int(player_input)
        if not 0 <= mask < (1 << n):
            raise ValueError(f"input {player_input!r} is not an {n}-bit mask")
        if player == 0:
            return DiscreteDistribution.point_mass(inner_products(mask))
        alice_hashes = board[0].bits
        match = alice_hashes == inner_products(mask)
        return BIT_POINT_MASSES[1 if match else 0]

    def output(board: Transcript):
        return 1 if board[1].bits == "1" else 0

    return FunctionalProtocol(
        2, next_speaker, message_distribution, output
    )
