"""Concrete execution of blackboard protocols with exact bit accounting.

:func:`run_protocol` plays one execution of a protocol on concrete inputs,
sampling private coins from a supplied RNG, and returns a
:class:`ProtocolRun` carrying the transcript, the output, and the number
of bits written — the realized communication cost.  This is the engine
behind the communication-scaling experiment (E1), where inputs are far too
large for exact tree enumeration.

A ``max_messages`` guard turns a non-halting protocol bug into an
exception instead of a hang.  The guard is *atomic*: exhaustion raises
:class:`~repro.core.model.ProtocolViolation` before any partial result
becomes observable — no truncated :class:`ProtocolRun` is returned, no
success counters (``runner_executions`` / ``bits_written`` /
``runner_messages``) are incremented, and no ``run_complete`` trace
event is emitted (per-``message`` events for the rounds that did happen
are emitted, as with any mid-run failure).  The networked runtime's
:class:`~repro.net.client.PartyClient` relies on this contract for its
hang guard: it raises the *same* exception with the *same* message at
the same board length, so a non-halting protocol fails identically
in-memory and over the wire.

Observability: the runner emits one ``message`` trace event per message
written (speaker, bit length, round index, cumulative bits) and feeds
the ``bits_written`` / ``runner_messages`` counters and the
``message_bits`` histogram of :mod:`repro.obs.metrics`.  With the
default :class:`~repro.obs.NullTracer` and metrics disabled, the hot
loop pays a single falsy check per message — traced and untraced runs
are bit-identical (asserted by tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer
from .model import Message, Protocol, ProtocolViolation, Transcript

__all__ = ["ProtocolRun", "run_protocol", "estimate_error", "max_communication"]

#: Default ceiling on the number of messages in a single execution.
DEFAULT_MAX_MESSAGES = 10_000_000


@dataclass(frozen=True)
class ProtocolRun:
    """The result of one protocol execution."""

    transcript: Transcript
    output: Any
    bits_communicated: int
    rounds: int

    def __post_init__(self) -> None:
        if self.bits_communicated != self.transcript.bits_written:
            raise ValueError("bits_communicated disagrees with transcript")


def run_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    rng: Optional[random.Random] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> ProtocolRun:
    """Execute ``protocol`` once on ``inputs``.

    Parameters
    ----------
    protocol:
        The protocol to run.
    inputs:
        One private input per player.
    rng:
        Source of the players' private randomness.  May be omitted for
        deterministic protocols; a randomized protocol raises
        :class:`ProtocolViolation` if it needs coins and none were given.
    max_messages:
        Safety ceiling; exceeding it raises :class:`ProtocolViolation`
        *before* any partial run, counter increment, or ``run_complete``
        event is observable (the atomicity
        :class:`~repro.net.client.PartyClient` leans on).
    tracer:
        Structured-trace sink; ``None`` uses the process-wide default
        (a no-op unless one was installed via ``repro.obs``).  Tracing
        never touches ``rng``, so traced and untraced executions are
        identical.

    Returns
    -------
    ProtocolRun
        The transcript, output, realized communication in bits, and the
        number of messages (rounds of speech).  Other media run through
        :func:`repro.topology.runtime.run_on_medium`.
    """
    if tracer is None:
        tracer = get_tracer()
    if tracer:
        with tracer.span(
            "run_protocol",
            protocol=type(protocol).__name__,
            players=protocol.num_players,
        ):
            return _execute(protocol, inputs, rng, max_messages, tracer)
    return _execute(protocol, inputs, rng, max_messages, tracer)


def _execute(
    protocol: Protocol,
    inputs: Sequence[Any],
    rng: Optional[random.Random],
    max_messages: int,
    tracer: Tracer,
) -> ProtocolRun:
    protocol.validate_inputs(inputs)
    reg = REGISTRY if REGISTRY.enabled else None
    message_bits_hist = (
        reg.histogram("message_bits") if reg is not None else None
    )
    # Hoist the tracer truthiness test out of the message loop: with the
    # default NullTracer this makes the per-message cost a plain local
    # bool check rather than a __bool__ method call.
    traced = bool(tracer)
    k = protocol.num_players
    state = protocol.initial_state()
    bits = 0
    board = Transcript()
    for _ in range(max_messages):
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            output = protocol.output(state, board)
            if traced:
                tracer.event(
                    "run_complete",
                    bits=bits,
                    rounds=len(board),
                    output=output,
                )
            if reg is not None:
                name = type(protocol).__name__
                reg.counter("runner_executions").inc(protocol=name)
                reg.counter("bits_written").inc(
                    bits, protocol=name, players=k
                )
                reg.counter("runner_messages").inc(
                    len(board), protocol=name
                )
            return ProtocolRun(
                transcript=board,
                output=output,
                bits_communicated=bits,
                rounds=len(board),
            )
        if not isinstance(speaker, int) or not 0 <= speaker < k:
            raise ProtocolViolation(
                f"next_speaker returned invalid player {speaker!r}"
            )
        dist = protocol.message_distribution(
            state, speaker, inputs[speaker], board
        )
        if len(dist) == 1:
            (message_bits,) = dist.support()
        else:
            if rng is None:
                raise ProtocolViolation(
                    "protocol requires private randomness but no rng was given"
                )
            message_bits = dist.sample(rng)
        if message_bits == "":
            raise ProtocolViolation("protocols may not write empty messages")
        message = Message(speaker=speaker, bits=message_bits)
        bits += len(message)
        if traced:
            tracer.event(
                "message",
                speaker=speaker,
                bits=len(message),
                round=len(board),
                cumulative_bits=bits,
            )
        if message_bits_hist is not None:
            message_bits_hist.observe(len(message))
        state = protocol.advance_state(state, message)
        board = board.extend(message)
    raise ProtocolViolation(
        f"protocol did not halt within {max_messages} messages"
    )


def estimate_error(
    protocol: Protocol,
    task_evaluate: Callable[[Sequence[Any]], Any],
    input_sampler: Callable[[random.Random], Sequence[Any]],
    *,
    rng: random.Random,
    trials: int,
) -> float:
    """Monte-Carlo estimate of the protocol's error probability.

    ``task_evaluate`` maps an input tuple to the correct answer;
    ``input_sampler`` draws an input tuple.  Errors are counted over both
    input and protocol randomness — the distributional error
    :math:`D^\\mu_\\epsilon` setting of Section 3.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    failures = 0
    for _ in range(trials):
        inputs = input_sampler(rng)
        run = run_protocol(protocol, inputs, rng=rng)
        if run.output != task_evaluate(inputs):
            failures += 1
    if REGISTRY.enabled:
        REGISTRY.counter("mc_trials").inc(
            trials, protocol=type(protocol).__name__, kind="error"
        )
    return failures / trials


def max_communication(
    protocol: Protocol,
    input_tuples: Iterable[Sequence[Any]],
    *,
    rng: Optional[random.Random] = None,
    repeats: int = 1,
) -> Tuple[int, Sequence[Any]]:
    """The maximum realized communication over the given inputs.

    For deterministic protocols with a covering set of inputs this is the
    worst-case communication complexity :math:`CC(\\Pi)`; for randomized
    protocols it is a lower estimate (``repeats`` executions per input).
    Returns ``(bits, argmax_input)``.
    """
    best_bits = -1
    best_input: Sequence[Any] = ()
    for inputs in input_tuples:
        for _ in range(repeats):
            run = run_protocol(protocol, inputs, rng=rng)
            if run.bits_communicated > best_bits:
                best_bits = run.bits_communicated
                best_input = tuple(inputs)
    if best_bits < 0:
        raise ValueError("no inputs supplied")
    return best_bits, best_input
