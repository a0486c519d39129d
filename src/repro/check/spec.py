"""Serializable specifications of generated fuzz cases.

A :class:`CaseSpec` pins down one random protocol *completely*: the
number of players, each player's input-space size, the speaking order,
the per-position prefix-free message codes, the halting rule, and which
positions are public-coin (input-independent).  Everything else — the
message-distribution weights, the output function, the input
distribution — is derived deterministically from ``spec.seed`` by
hashing, so a spec is a full replayable description of a case: the same
spec always rebuilds the same protocol, on any machine, in any call
order.

Specs round-trip through JSON (:meth:`CaseSpec.to_dict` /
:meth:`CaseSpec.from_dict`), which is what makes the repro bundles of
:mod:`repro.check.bundle` self-contained, and they are the unit the
shrinker (:mod:`repro.check.shrink`) operates on: every shrinking move
is a spec-to-spec transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..coding.bitio import check_bits
from ..core.model import ProtocolViolation, check_prefix_free

__all__ = ["CaseSpec", "SPEC_FORMAT"]

#: Version tag stored in serialized specs so future formats can migrate.
SPEC_FORMAT = "repro.check/spec/1"


@dataclass(frozen=True)
class CaseSpec:
    """A complete, serializable description of one generated protocol.

    Attributes
    ----------
    seed:
        Master seed of the case.  All derived randomness (message
        weights, output function, input distribution) hashes this
        together with the query context, so two specs with equal fields
        describe byte-identical cases.
    num_players:
        ``k`` (at least 1).
    input_space:
        Per-player input-space sizes; player ``i`` holds an input in
        ``range(input_space[i])``.
    speaking_order:
        The speaker of each position (message index); the protocol
        halts after the last position unless a halt word fires earlier.
    codes:
        ``codes[pos]`` is the prefix-free tuple of bit-string words the
        speaker of ``pos`` may write.
    halt_words:
        ``halt_words[pos]`` is either ``None`` or a word of
        ``codes[pos]``; writing it halts the protocol immediately (a
        board-determined halting rule, as the model requires).
    public_positions:
        Positions whose message law ignores the speaker's input — the
        written bits are public randomness living on the board.
    """

    seed: int
    num_players: int
    input_space: Tuple[int, ...]
    speaking_order: Tuple[int, ...]
    codes: Tuple[Tuple[str, ...], ...]
    halt_words: Tuple[Optional[str], ...]
    public_positions: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_players < 1:
            raise ValueError(f"need at least one player, got {self.num_players}")
        if len(self.input_space) != self.num_players:
            raise ValueError(
                f"{self.num_players} players but {len(self.input_space)} "
                "input-space sizes"
            )
        if any(size < 1 for size in self.input_space):
            raise ValueError(f"input-space sizes must be >= 1: {self.input_space}")
        positions = len(self.speaking_order)
        if len(self.codes) != positions or len(self.halt_words) != positions:
            raise ValueError(
                "speaking_order, codes and halt_words must have equal length"
            )
        for speaker in self.speaking_order:
            if not 0 <= speaker < self.num_players:
                raise ValueError(f"speaker {speaker} out of range")
        for pos, code in enumerate(self.codes):
            if not code:
                raise ValueError(f"position {pos} has an empty code")
            for word in code:
                if not isinstance(word, str):
                    raise ValueError(f"position {pos}: {word!r} is not a str")
                check_bits(word, f"position {pos}: not a bit string")
            try:
                check_prefix_free(code)
            except ProtocolViolation as error:
                raise ValueError(f"position {pos}: {error}") from None
        for pos, word in enumerate(self.halt_words):
            if word is not None and word not in self.codes[pos]:
                raise ValueError(
                    f"halt word {word!r} is not a codeword of position {pos}"
                )
        for pos in self.public_positions:
            if not 0 <= pos < positions:
                raise ValueError(f"public position {pos} out of range")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_positions(self) -> int:
        return len(self.speaking_order)

    def input_support_size(self) -> int:
        """Number of joint input tuples the case enumerates."""
        total = 1
        for size in self.input_space:
            total *= size
        return total

    def complexity(self) -> int:
        """A rough size measure used to confirm shrinking made progress.

        Every feature the shrinker can remove must contribute here —
        halt words and public markers included — or the greedy loop
        (which demands strict decrease) could never accept removing it.
        """
        return (
            self.input_support_size()
            + sum(len(code) for code in self.codes)
            + self.num_positions
            + self.num_players
            + sum(1 for word in self.halt_words if word is not None)
            + len(self.public_positions)
        )

    def replaced(self, **changes: Any) -> "CaseSpec":
        """A copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SPEC_FORMAT,
            "seed": self.seed,
            "num_players": self.num_players,
            "input_space": list(self.input_space),
            "speaking_order": list(self.speaking_order),
            "codes": [list(code) for code in self.codes],
            "halt_words": list(self.halt_words),
            "public_positions": list(self.public_positions),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CaseSpec":
        if payload.get("format", SPEC_FORMAT) != SPEC_FORMAT:
            raise ValueError(f"unsupported spec format {payload.get('format')!r}")
        return cls(
            seed=int(payload["seed"]),
            num_players=int(payload["num_players"]),
            input_space=tuple(int(s) for s in payload["input_space"]),
            speaking_order=tuple(int(s) for s in payload["speaking_order"]),
            codes=tuple(tuple(code) for code in payload["codes"]),
            halt_words=tuple(payload["halt_words"]),
            public_positions=tuple(
                int(p) for p in payload.get("public_positions", ())
            ),
        )
