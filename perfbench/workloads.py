"""The benchmark's workloads: seeded inputs, fixed job lists, output checks.

Every workload generates all of its inputs in :meth:`Workload.setup`
from the ``--seed`` value; a timed pass then runs the same fixed job
list through the program's public functions.  Each job returns a
JSON-serializable result and the list of check failures it found.  The
checks compare against facts computed here, independently of the code
under test wherever the paper gives a formula: the closed-form CIC of
sequential AND, ``IC <= H <= E|Pi|``, exact bit counts of the AND and
coordinator protocols, and the bigint simulators against the
message-level runner.

``exact-info``
    Exact enumeration and information accounting (Section 4 hard
    distribution ladder, generated protocols and input laws, E14 DPs,
    per-input worst-case walks, a coordinator per-view slice).
``simulate``
    Message-by-message execution of long transcripts (runner and bigint
    simulators side by side, media runtime, loopback network, Lemma 7
    sampler rounds).
``store-serve``
    A cold loopback fabric sweep into a fresh store, a warm store
    re-sweep, and closed-loop GETs against ``python -m repro.fabric
    serve`` in its own process.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Absolute slack for float identities that hold exactly in the reals
#: (``IC <= H`` is an equality for deterministic protocols, so the two
#: sides differ only by summation order).
FLOAT_SLACK = 1e-9

HERE = os.path.dirname(os.path.abspath(__file__))


def _rng(seed: int, *label: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + label))


def _entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in bits, computed here rather than by the program."""
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def _close(a: float, b: float, *, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Job:
    """One unit of work: ``run`` returns ``(result, problems)``."""

    name: str
    run: Callable[[], Tuple[Any, List[str]]]


#: Kernel time of one :meth:`Calibrator.sample` run at the reference
#: host speed (about a 2-vCPU Intel Xeon at 2.0 GHz, no co-tenant load).
REFERENCE_CALIBRATION_S = 0.002
#: A pass takes a calibration sample between jobs at most this often.
CALIBRATION_INTERVAL_S = 0.1
#: Kernel runs per sample; the sample is their median.
CALIBRATION_REPEATS = 3


class Calibrator:
    """Host-speed samples taken while a pass runs.

    On a shared host, co-tenant load slows every instruction of this
    process, in stretches from under a second to minutes.  A fixed
    pure-Python kernel slows with it while program changes leave it
    alone, so each measured interval is restated at the reference host
    speed: ``seconds x scale(start, end)`` with ``scale =
    REFERENCE_CALIBRATION_S / (kernel time around the interval)``.

    The kernel is timed on this thread's CPU clock with the garbage
    collector off.  Time spent waiting — for the GIL while a program
    thread holds it, or for a CPU the program's own processes occupy —
    does not advance that clock, and no collection of a larger program
    heap can run inside the kernel, so such slowdowns show in the
    measured jobs instead of being scaled away as host speed.  (Timed
    in a helper process instead, the kernel tracked this process's
    speed so poorly that scaled job times spread more than raw ones.)
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        #: Wall and CPU seconds spent sampling, left out of pass times.
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self) -> None:
        """Record the median of ``CALIBRATION_REPEATS`` kernel runs."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            durations = []
            for _ in range(CALIBRATION_REPEATS):
                started = time.thread_time()
                table: Dict[int, int] = {}
                for i in range(15000):
                    table[i % 500] = table.get(i % 500, 0) + i
                durations.append(time.thread_time() - started)
        finally:
            if collecting:
                gc.enable()
        wall1 = time.perf_counter()
        self.times.append((wall0 + wall1) / 2)
        self.durations.append(sorted(durations)[CALIBRATION_REPEATS // 2])
        self.spent_wall += wall1 - wall0
        self.spent_cpu += time.process_time() - cpu0

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATION_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over local kernel time: the mean of the last sample
        before ``start`` and the first after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        local = [self.durations[i] for i in (before, after) if 0 <= i < len(self.times)]
        return REFERENCE_CALIBRATION_S / (sum(local) / len(local))


@dataclass
class PassOutcome:
    """What one timed pass over the job list produced.  Every time is
    paired with the host-speed scale of its interval (1.0 when the pass
    was traced and took no calibration samples)."""

    wall: Tuple[float, float]
    cpu: Tuple[float, float]
    results: List[Any]
    attempted: int
    failures: List[str]
    jobs: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)
    cold: bool = False
    phases: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    serve_ms: List[float] = field(default_factory=list)


def load_spec() -> Dict[str, Any]:
    """``spec.json``: generator parameters, build and holdout seeds, and
    the layer predictions."""
    with open(os.path.join(HERE, "spec.json")) as handle:
        return json.load(handle)


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``, the contract: workloads, metrics and bounds."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


def program_env() -> Dict[str, str]:
    """The environment for a child process that imports the program
    from ``src/`` of the checkout in the working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")]
        + [part for part in env.get("PYTHONPATH", "").split(os.pathsep) if part]
    )
    return env


class Workload:
    """Base class: a fixed job list run in order, one span per job."""

    name = ""

    def __init__(self, seed: int, scale: str, work_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.p = load_spec()["workloads"][self.name]["params"][scale]
        self.jobs: List[Job] = []
        self.calibrator = Calibrator()

    def setup(self) -> None:
        """Generate every input and the job list (imports included)."""
        self.jobs = []
        self.build()
        if len({job.name for job in self.jobs}) != len(self.jobs):
            raise ValueError(f"{self.name}: job names must be unique")

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run_pass(self, recorder: Any = None, *, cold: bool = False,
                 calibrate: bool = True) -> PassOutcome:
        """One pass over the job list.  A cold pass first regenerates the
        inputs (untimed), so no job sees objects an earlier pass used.
        Calibration samples are taken between jobs unless ``calibrate``
        is false or the pass is traced (so every span is the
        workload's)."""
        if cold:
            self.setup()
        calibrate = calibrate and recorder is None
        results: List[Any] = []
        failures: List[str] = []
        intervals: Dict[str, Tuple[float, float, float]] = {}
        if calibrate:
            self.calibrator.sample()
        spent0 = (self.calibrator.spent_wall, self.calibrator.spent_cpu)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for index, job in enumerate(self.jobs):
            if calibrate:
                self.calibrator.maybe_sample()
            if recorder is not None:
                recorder.set_job(index)
                span = recorder.begin("job")
            started = time.perf_counter()
            cpu_started = time.process_time()
            try:
                result, problems = job.run()
            except Exception as exc:  # a typed error fails the job
                result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            intervals[job.name] = (
                started, time.perf_counter(), time.process_time() - cpu_started
            )
            if recorder is not None:
                recorder.finish(span)
            results.append(result)
            failures.extend(f"{job.name}: {p}" for p in problems)
        wall1 = time.perf_counter()
        # Pass times leave out the calibration samples taken between jobs.
        waited = self.calibrator.spent_wall - spent0[0]
        cpu = time.process_time() - cpu0 - (self.calibrator.spent_cpu - spent0[1])
        if calibrate:
            self.calibrator.sample()

        def scale(start: float, end: float) -> float:
            return self.calibrator.scale(start, end) if calibrate else 1.0

        return PassOutcome(
            wall=(wall1 - wall0 - waited, scale(wall0, wall1)),
            cpu=(cpu, scale(wall0, wall1)),
            results=results,
            attempted=len(self.jobs),
            failures=failures,
            jobs={
                name: (end - start, cpu_s, scale(start, end))
                for name, (start, end, cpu_s) in intervals.items()
            },
            cold=cold,
        )


# ----------------------------------------------------------------------
# exact-info
# ----------------------------------------------------------------------
class ExactInfo(Workload):
    name = "exact-info"

    def build(self) -> None:
        from repro.check import generator
        from repro.core import analysis
        from repro.information.distribution import DiscreteDistribution
        from repro.lowerbounds import analytic, hard_distribution
        from repro.lowerbounds import optimal_information
        from repro.protocols.and_protocols import (
            FullBroadcastAndProtocol,
            SequentialAndProtocol,
        )
        from repro.topology import analysis as topology_analysis
        from repro.topology.medium import COORDINATOR
        from repro.topology.protocols import CoordinatorDisjointnessProtocol

        p = self.p
        seed = self.seed
        jobs = self.jobs

        def information_chain(protocol: Any, law: Any) -> Tuple[List[float], List[str]]:
            ic = analysis.external_information_cost(protocol, law)
            h = analysis.transcript_entropy(protocol, law)
            e = analysis.expected_communication(protocol, law)
            problems = []
            if not (ic <= h + FLOAT_SLACK and h <= e + FLOAT_SLACK):
                problems.append(f"IC <= H <= E|Pi| fails: {ic!r}, {h!r}, {e!r}")
            return [ic, h, e], problems

        # Section 4 hard distribution ladder; sequential AND reaches the
        # truncated regime at k = 32, where E2 spends its time.
        ladders = {
            SequentialAndProtocol: p["sequential_and_ks"],
            FullBroadcastAndProtocol: p["full_broadcast_and_ks"],
        }
        for k in sorted(set(itertools.chain(*ladders.values()))):
            truncated = k > p["full_support_limit"]
            max_zeros = p["truncated_max_zeros"] if truncated else None
            mu = hard_distribution.and_hard_distribution(k, max_zeros=max_zeros)
            marginal = hard_distribution.and_hard_input_marginal(
                k, max_zeros=max_zeros
            )
            for protocol_cls in (cls for cls, ks in ladders.items() if k in ks):

                def hard_job(k=k, mu=mu, marginal=marginal, cls=protocol_cls,
                             truncated=truncated):
                    protocol = cls(k)
                    cic = analysis.conditional_information_cost(protocol, mu)
                    chain, problems = information_chain(protocol, marginal)
                    if cls is SequentialAndProtocol and not truncated:
                        closed = analytic.sequential_and_cic_closed_form(k)
                        if not _close(cic, closed):
                            problems.append(
                                f"CIC {cic!r} != closed form {closed!r}"
                            )
                    return [cic] + chain, problems

                jobs.append(Job(f"hard/{protocol_cls.__name__}/k={k}", hard_job))

        # Seeded generated protocols with their random input laws, each
        # with per-input worst-case walks.  Many small cases rather than
        # fewer large ones keep the total work nearly seed-independent.
        for index in range(p["generated_cases"]):
            rng = generator.derive_rng(seed, "case", index)
            spec = generator.random_spec(
                rng, rng.getrandbits(48), max_positions=p["generated_max_positions"]
            )
            case = generator.case_from_spec(spec, index=index)

            def generated_job(case=case):
                chain, problems = information_chain(case.protocol, case.input_dist)
                worst = [
                    analysis.worst_case_communication(case.protocol, [x])
                    for x in case.input_tuples
                ]
                if max(worst) + FLOAT_SLACK < chain[2]:
                    problems.append(
                        f"worst case {max(worst)} below E|Pi| {chain[2]!r}"
                    )
                return chain + [worst], problems

            jobs.append(Job(f"generated/{index}", generated_job))

        # Per-input worst-case walks of the AND protocols, checked
        # against their exact bit counts.
        k = p["walk_k"]
        walk_rng = _rng(seed, "walk")
        walk_inputs = [
            tuple(int(walk_rng.random() >= 1.0 / 8) for _ in range(k))
            for _ in range(p["walk_inputs"])
        ]
        for protocol_cls, bits_of in (
            (SequentialAndProtocol,
             lambda x: (x.index(0) + 1) if 0 in x else len(x)),
            (FullBroadcastAndProtocol, lambda x: len(x)),
        ):

            def walk_job(k=k, cls=protocol_cls, bits_of=bits_of):
                protocol = cls(k)
                worst = [
                    analysis.worst_case_communication(protocol, [x])
                    for x in walk_inputs
                ]
                expected = [bits_of(x) for x in walk_inputs]
                problems = [] if worst == expected else [
                    f"worst-case bits {worst} != {expected}"
                ]
                return worst, problems

            jobs.append(Job(f"walk/{protocol_cls.__name__}/k={k}", walk_job))

        # E14 dynamic programs: the zero-error CIC optimum cannot beat the
        # sequential protocol (closed form), and the external optimum
        # cannot exceed the input entropy.
        for k in p["dp_cic_ks"]:

            def dp_cic_job(k=k):
                value = optimal_information.minimum_zero_error_cic(k)
                witness = analytic.sequential_and_cic_closed_form(k)
                problems = []
                if not (-FLOAT_SLACK <= value <= witness + FLOAT_SLACK):
                    problems.append(f"min CIC {value!r} outside [0, {witness!r}]")
                return value, problems

            jobs.append(Job(f"dp-cic/k={k}", dp_cic_job))
        dp_rng = _rng(seed, "dp")
        tasks = {
            "and": lambda x: int(all(x)),
            "or": lambda x: int(any(x)),
            "majority": lambda x: int(2 * sum(x) > len(x)),
        }
        for k in p["dp_external_ks"]:
            task = dp_rng.choice(sorted(tasks))
            marginals = [round(dp_rng.uniform(0.1, 0.9), 6) for _ in range(k)]

            def dp_external_job(k=k, task=task, marginals=marginals):
                value = optimal_information.minimum_zero_error_external_ic(
                    k, tasks[task], marginals
                )
                ceiling = sum(_entropy([q, 1.0 - q]) for q in marginals)
                problems = []
                if not (-FLOAT_SLACK <= value <= ceiling + FLOAT_SLACK):
                    problems.append(f"min IC {value!r} outside [0, H(X)={ceiling!r}]")
                return value, problems

            jobs.append(Job(f"dp-external/{task}/k={k}", dp_external_job))

        # Coordinator per-view information under seeded input laws.
        for n, k in p["per_view_points"]:
            law_rng = _rng(seed, "per-view", n, k)
            tuples = list(itertools.product(range(1 << n), repeat=k))
            weights = {t: law_rng.random() + 0.05 for t in tuples}
            law = DiscreteDistribution(weights, normalize=True)
            total = sum(weights.values())
            ceiling = _entropy([w / total for w in weights.values()])

            def per_view_job(n=n, k=k, law=law, ceiling=ceiling):
                rows = topology_analysis.per_view_information(
                    CoordinatorDisjointnessProtocol(n, k), COORDINATOR, law
                )
                problems = []
                result = []
                for node in sorted(rows):
                    row = rows[node]
                    result.append([node, row["external"], row.get("internal")])
                    if not -FLOAT_SLACK <= row["external"] <= ceiling + FLOAT_SLACK:
                        problems.append(
                            f"node {node} view reveals {row['external']!r} bits, "
                            f"outside [0, H(X)={ceiling!r}]"
                        )
                    if row.get("internal", 0.0) < -FLOAT_SLACK:
                        problems.append(f"node {node} internal information < 0")
                return result, problems

            jobs.append(Job(f"per-view/n={n}/k={k}", per_view_job))


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
class Simulate(Workload):
    name = "simulate"

    def _instance(self, kind: str, n: int, k: int) -> Tuple[int, ...]:
        from repro.experiments import workloads

        rng = _rng(self.seed, kind, n, k)
        if kind == "partition":
            return workloads.partition_instance(n, k)
        if kind == "random":
            return workloads.random_instance(n, k, rng)
        if kind == "planted":
            return workloads.planted_intersection_instance(n, k, rng)
        return workloads.all_full_instance(n, k)

    def build(self) -> None:
        from repro.compression import sampling
        from repro.core import runner
        from repro.information.distribution import DiscreteDistribution
        from repro.net import runner as net_runner
        from repro.perf import kernels
        from repro.protocols.and_protocols import (
            FullBroadcastAndProtocol,
            SequentialAndProtocol,
        )
        from repro.protocols.naive_disjointness import NaiveDisjointnessProtocol
        from repro.protocols.optimal_disjointness import (
            OptimalDisjointnessProtocol,
        )
        from repro.protocols.trivial import TrivialDisjointnessProtocol
        from repro.topology import runtime
        from repro.topology.medium import COORDINATOR, ring_medium
        from repro.topology.protocols import (
            CoordinatorAndProtocol,
            CoordinatorDisjointnessProtocol,
            CoordinatorTrivialDisjointness,
            RingTokenAndProtocol,
        )

        p = self.p
        seed = self.seed
        jobs = self.jobs
        engines = (
            (OptimalDisjointnessProtocol, "simulate_optimal_disjointness"),
            (NaiveDisjointnessProtocol, "simulate_naive_disjointness"),
            (TrivialDisjointnessProtocol, "simulate_trivial_disjointness"),
        )

        def disjoint(masks: Sequence[int]) -> int:
            common = masks[0]
            for mask in masks[1:]:
                common &= mask
            return int(common == 0)

        # Both engines of every E1 computation on the same instances.
        for n, k in p["disjointness_points"]:
            for kind in p["instances"]:
                masks = self._instance(kind, n, k)

                def disjointness_job(n=n, k=k, masks=masks):
                    truth = disjoint(masks)
                    result, problems = [], []
                    for protocol_cls, simulator in engines:
                        run = runner.run_protocol(protocol_cls(n, k), masks)
                        bits, output = getattr(kernels, simulator)(n, k, masks)
                        result.append([run.bits_communicated, run.output])
                        if (run.bits_communicated, run.output) != (bits, output):
                            problems.append(
                                f"{protocol_cls.__name__}: runner "
                                f"({run.bits_communicated}, {run.output}) != "
                                f"simulator ({bits}, {output})"
                            )
                        if run.output != truth:
                            problems.append(
                                f"{protocol_cls.__name__} answered {run.output}, "
                                f"truth {truth}"
                            )
                    return result, problems

                jobs.append(Job(f"disjointness/{kind}/n={n}/k={k}", disjointness_job))

        # AND protocols at large k: one-bit messages, transcripts of
        # length up to k.
        def first_zero_bits(x: Sequence[int]) -> int:
            return (list(x).index(0) + 1) if 0 in x else len(x)

        for k in p["and_ks"]:
            rng = _rng(seed, "and", k)
            late_zero = [1] * k
            late_zero[rng.randrange(k - k // 8, k)] = 0
            for label, x in (("all-ones", tuple([1] * k)),
                             ("late-zero", tuple(late_zero))):
                for protocol_cls, bits_of in (
                    (SequentialAndProtocol, first_zero_bits),
                    (FullBroadcastAndProtocol, len),
                ):

                    def and_job(k=k, x=x, cls=protocol_cls, bits_of=bits_of):
                        run = runner.run_protocol(cls(k), x)
                        expected = (bits_of(x), int(all(x)))
                        got = (run.bits_communicated, run.output)
                        problems = [] if got == expected else [
                            f"(bits, output) {got} != {expected}"
                        ]
                        return list(got), problems

                    jobs.append(Job(
                        f"and/{protocol_cls.__name__}/{label}/k={k}", and_job
                    ))

        # Coordinator and ring media through the medium runtime.
        for n, k in p["medium_points"]:
            for kind in ("partition", "random"):
                masks = self._instance(kind, n, k)

                def medium_job(n=n, k=k, masks=masks):
                    truth = disjoint(masks)
                    relay = runtime.run_on_medium(
                        CoordinatorDisjointnessProtocol(n, k), COORDINATOR, masks
                    )
                    trivial = runtime.run_on_medium(
                        CoordinatorTrivialDisjointness(n, k), COORDINATOR, masks
                    )
                    problems = []
                    if relay.bits_communicated != n * (2 * k - 1):
                        problems.append(
                            f"relay bits {relay.bits_communicated} != n(2k-1)"
                        )
                    if trivial.bits_communicated != n * k:
                        problems.append(
                            f"trivial bits {trivial.bits_communicated} != nk"
                        )
                    if relay.output != truth or trivial.output != truth:
                        problems.append("coordinator answer differs from truth")
                    return [
                        relay.bits_communicated, relay.output,
                        trivial.bits_communicated, trivial.output,
                    ], problems

                jobs.append(Job(f"coordinator/{kind}/n={n}/k={k}", medium_job))
        for k in p["ring_ks"]:
            rng = _rng(seed, "ring", k)
            x = [1] * k
            x[rng.randrange(k // 2, k)] = 0
            x = tuple(x)

            def ring_job(k=k, x=x):
                ring = runtime.run_on_medium(RingTokenAndProtocol(k), ring_medium(k), x)
                hub = runtime.run_on_medium(CoordinatorAndProtocol(k), COORDINATOR, x)
                got = [ring.bits_communicated, ring.output,
                       hub.bits_communicated, hub.output]
                expected = [k, 0, first_zero_bits(x), 0]
                problems = [] if got == expected else [f"{got} != {expected}"]
                return got, problems

            jobs.append(Job(f"ring-and/k={k}", ring_job))

        # A loopback-network slice, bit-identical to the in-memory runner.
        n, k = p["network_point"]
        for kind in ("partition", "random"):
            masks = self._instance(kind, n, k)
            for protocol_cls, simulator in engines[:2]:

                def network_job(n=n, k=k, masks=masks, cls=protocol_cls,
                                simulator=simulator):
                    run = net_runner.run_networked(
                        cls(n, k), masks, transport="loopback"
                    )
                    expected = getattr(kernels, simulator)(n, k, masks)
                    got = (run.bits_communicated, run.output)
                    problems = [] if got == expected else [
                        f"networked {got} != simulator {expected}"
                    ]
                    return list(got), problems

                jobs.append(Job(
                    f"network/{protocol_cls.__name__}/{kind}/n={n}/k={k}",
                    network_job,
                ))

        # Lemma 7 rounds: scalar, batched (bit-identical by contract) and
        # the literal dart protocol (receivers must decode the message).
        size = p["lemma7_universe"]
        universe = list(range(size))
        cells = []
        for c in range(p["lemma7_cells"]):
            rng = _rng(seed, "lemma7", c)
            eta = DiscreteDistribution(
                {u: rng.random() + 0.01 for u in universe}, normalize=True
            )
            nu = DiscreteDistribution(
                {u: rng.random() + 0.01 for u in universe}, normalize=True
            )
            cells.append((eta, nu, universe))
        rounds = p["lemma7_rounds"]
        batch_seed = _rng(seed, "lemma7-batch").getrandbits(32)

        def message_row(m: Any) -> List[Any]:
            return [m.value, m.s, m.block, m.rank, m.cost.total_bits]

        def lemma7_scalar_job():
            rows = []
            for c, (eta, nu, uni) in enumerate(cells):
                rng = random.Random(sampling.cell_seed(batch_seed, c))
                rows.append([
                    message_row(sampling.simulate_sampling_round(
                        eta, nu, rng, universe=uni
                    ))
                    for _ in range(rounds)
                ])
            return rows, []

        def lemma7_batched_job():
            batch = sampling.BatchedDartSampler(cells, seed=batch_seed)
            per_round = batch.advance(rounds)
            rows = [[message_row(per_round[r][c]) for r in range(rounds)]
                    for c in range(len(cells))]
            scalar, _ = lemma7_scalar_job()
            problems = [] if rows == scalar else [
                "batched sampler differs from the scalar rounds"
            ]
            return rows, problems

        def lemma7_naive_job():
            rng = _rng(seed, "lemma7-naive")
            rows, problems = [], []
            for eta, nu, uni in cells:
                for _ in range(rounds):
                    outcome = sampling.run_naive_dart_protocol(eta, nu, rng, uni)
                    if not outcome.agreed or outcome.darts_used < 1:
                        problems.append("receivers decoded another value")
                    rows.append(message_row(outcome.message) + [outcome.darts_used])
            return rows, problems

        jobs.append(Job("lemma7/batched+scalar", lemma7_batched_job))
        jobs.append(Job("lemma7/naive-darts", lemma7_naive_job))


# ----------------------------------------------------------------------
# store-serve
# ----------------------------------------------------------------------
def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live child process (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class StoreServe(Workload):
    name = "store-serve"

    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro.experiments import e1_disjointness_scaling as e1
        from repro.experiments import e16_cross_model as e16
        from repro.fabric import sweep as fabric_sweep
        from repro.perf.grid import derive_seed
        from repro.store.keys import ResultKey, code_version
        from repro.store.store import ResultStore

        p = self.p
        group_rng = _rng(self.seed, "e1-base-seeds")
        # (experiment, items, base_seed) per re-sweep group;
        # E1 cells are seeded (the seed picks their random check
        # instances), E16 cells are seedless.
        self.groups: List[Tuple[str, List[Any], Optional[int]]] = []
        for _ in range(p["e1_seed_groups"]):
            self.groups.append(
                ("E1", [list(point) for point in e1.CLASSIC_GRID],
                 group_rng.getrandbits(32))
            )
        self.groups.append(("E16", [list(pt) for pt in e16.CLASSIC_GRID], None))
        self.groups.append(("E16-info", [list(pt) for pt in e16.INFO_POINTS], None))
        self.keys: List[Any] = []
        for experiment, items, base_seed in self.groups:
            version = code_version(experiment)
            for index, (n, k) in enumerate(items):
                self.keys.append(ResultKey(
                    experiment=experiment,
                    params={"n": n, "k": k},
                    seed=None if base_seed is None else derive_seed(base_seed, index),
                    version=version,
                ))

        os.makedirs(self.work_dir, exist_ok=True)
        self.serve_dir = os.path.join(self.work_dir, "serve-store")
        shutil.rmtree(self.serve_dir, ignore_errors=True)
        serve_store = ResultStore(self.serve_dir)
        report = fabric_sweep.fabric_sweep(
            self.keys, store=serve_store, workers=p["fabric_workers"],
            transport=p["fabric_transport"],
        )
        if report["computed"] != len(self.keys):
            raise RuntimeError(f"fresh serving store was not cold: {report}")
        self.reference = [
            hashlib.sha256(serve_store.get(key)).hexdigest() for key in self.keys
        ]

        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.fabric", "serve",
             "--store", self.serve_dir, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=program_env(),
            text=True,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"fabric server did not start: {line!r}")
        host, _, port = line.strip().rsplit(" ", 1)[1].rpartition(":")
        self.address = (host, int(port))
        self._gets = 0
        self._serve_orders = [
            _rng(self.seed, "serve-order", c) for c in range(p["clients"])
        ]
        # Warm-up: the first lookups pay the server's lazy imports.
        _, payloads = self._serve(self.p["clients"], None)
        problems = self._check_served(payloads)
        if problems:
            raise RuntimeError(f"warm-up GETs: {problems[0]}")

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=10)
        if server.stdout is not None:
            server.stdout.close()

    def extra_cpu_s(self) -> float:
        """CPU seconds the serving process has used so far."""
        return _proc_cpu_s(self.server.pid) if self.server is not None else 0.0

    def _serve(self, total: int, recorder: Any) -> Tuple[List[float], List[Tuple[int, bytes]]]:
        """``total`` closed-loop GET requests of ``keys_per_get`` keys each
        over ``clients`` connections, each walking its own seeded key
        order.  Batched lookups keep the round trip dominated by serving
        work rather than by the host's wake-up latency, which swings
        with co-tenant load."""
        from repro.fabric.service import FabricClient

        clients = self.p["clients"]
        per_client = [total // clients + (c < total % clients) for c in range(clients)]
        samples: List[List[float]] = [[] for _ in range(clients)]
        payloads: List[List[Tuple[int, bytes]]] = [[] for _ in range(clients)]
        errors: List[BaseException] = []
        batch = self.p["keys_per_get"]
        orders = [
            [[order.randrange(len(self.keys)) for _ in range(batch)] for _ in range(count)]
            for order, count in zip(self._serve_orders, per_client)
        ]
        job_base = self._gets
        self._gets += total

        def client_loop(c: int) -> None:
            try:
                if recorder is not None:
                    root = recorder.begin("job")
                with FabricClient(*self.address) as client:
                    for i, indices in enumerate(orders[c]):
                        if recorder is not None:
                            recorder.set_job(job_base + c * per_client[0] + i)
                        started = time.perf_counter()
                        answers = client.get_many([self.keys[j] for j in indices])
                        samples[c].append((time.perf_counter() - started) * 1000.0)
                        payloads[c].extend(
                            (j, payload if hit else b"")
                            for j, (payload, hit) in zip(indices, answers)
                        )
                if recorder is not None:
                    recorder.finish(root)
            except Exception as exc:  # surfaced as a failed request batch
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                errors.append(TimeoutError("GET client did not finish in 120 s"))
        if errors:
            raise errors[0]
        return (
            [s for per in samples for s in per],
            [item for per in payloads for item in per],
        )

    def _check_served(self, payloads: List[Tuple[int, bytes]]) -> List[str]:
        bad = sum(
            hashlib.sha256(payload).hexdigest() != self.reference[index]
            for index, payload in payloads
        )
        return [f"{bad} served payloads differ from the stored digest"] if bad else []

    def run_pass(self, recorder: Any = None, *, cold: bool = False,
                 calibrate: bool = True) -> PassOutcome:
        """Cold sweep, warm re-sweeps and GETs; every pass starts from a
        fresh store, so ``cold`` changes nothing here."""
        from repro.fabric import sweep as fabric_sweep
        from repro.store import sweep as store_sweep
        from repro.store.keys import code_version
        from repro.store.store import ResultStore

        p = self.p
        calibrate = calibrate and recorder is None
        failures: List[str] = []
        spans: Dict[str, Tuple[float, float]] = {}
        if calibrate:
            self.calibrator.sample()
        spent0 = (self.calibrator.spent_wall, self.calibrator.spent_cpu)
        cpu0 = time.process_time() + self.extra_cpu_s()
        wall0 = time.perf_counter()
        store_dir = os.path.join(self.work_dir, "pass-store")
        shutil.rmtree(store_dir, ignore_errors=True)

        def span(job: int, layer: str = "job") -> Any:
            if recorder is None:
                return None
            recorder.set_job(job)
            return recorder.begin(layer)

        def end(index: Any) -> None:
            if index is not None:
                recorder.finish(index)

        # Phase 1: cold loopback fabric sweep into a fresh store.
        token = span(0)
        started = time.perf_counter()
        store = ResultStore(store_dir)
        try:
            report = fabric_sweep.fabric_sweep(
                self.keys, store=store, workers=p["fabric_workers"],
                transport=p["fabric_transport"],
            )
            if report["computed"] != len(self.keys):
                failures.append(f"cold sweep was not cold: {report}")
        except Exception as exc:
            failures.append(f"cold sweep raised {type(exc).__name__}: {exc}")
        spans["cold_s"] = (started, time.perf_counter())
        stored = [store.get(key) or b"" for key in self.keys]
        end(token)
        if calibrate:
            self.calibrator.sample()
        stored_digests = [hashlib.sha256(s).hexdigest() for s in stored]
        bad = sum(a != b for a, b in zip(stored_digests, self.reference))
        if bad:
            failures.append(f"{bad} stored payloads differ from the reference")

        # Phase 2: warm re-sweeps through checkpointed_map_grid; a cell
        # function call would mean a read missed.
        recomputed: List[Any] = []

        def recompute(item: Any, seed: Optional[int] = None) -> Any:
            recomputed.append(item)
            raise RuntimeError("warm re-sweep recomputed a cell")

        warm_spans: List[Tuple[float, float]] = []
        reread: List[str] = []
        token = span(1)
        for repeat in range(p["warm_resweeps_per_pass"]):
            started = time.perf_counter()
            results: List[Any] = []
            try:
                for experiment, items, base_seed in self.groups:
                    results.extend(store_sweep.checkpointed_map_grid(
                        recompute, items,
                        store=store,
                        experiment=experiment,
                        version=code_version(experiment),
                        params_of=lambda item: {"n": item[0], "k": item[1]},
                        base_seed=base_seed,
                    ))
            except Exception as exc:
                failures.append(f"warm re-sweep raised {type(exc).__name__}: {exc}")
            warm_spans.append((started, time.perf_counter()))
            if repeat == 0:
                reread = [
                    hashlib.sha256(store_sweep.encode_result(r)).hexdigest()
                    for r in results
                ]
        end(token)
        if recomputed:
            failures.append(f"warm re-sweep recomputed {len(recomputed)} cells")
        if reread != self.reference:
            failures.append("re-read payloads differ from the stored digests")
        if calibrate:
            self.calibrator.sample()

        # Phase 3: closed-loop warm GETs against the serving process.
        token = span(2)
        waiting = recorder.begin("wait") if recorder is not None else None
        started = time.perf_counter()
        samples: List[float] = []
        try:
            samples, payloads = self._serve(p["gets_per_pass"], recorder)
            failures.extend(self._check_served(payloads))
            served_bad = sum(1 for _, payload in payloads if not payload)
            if served_bad:
                failures.append(f"{served_bad} GETs were not warm store hits")
        except Exception as exc:
            failures.append(f"serve phase raised {type(exc).__name__}: {exc}")
        spans["serve_s"] = (started, time.perf_counter())
        end(waiting)
        end(token)
        shutil.rmtree(store_dir, ignore_errors=True)
        wall1 = time.perf_counter()
        # Pass times leave out the calibration samples between phases.
        waited = self.calibrator.spent_wall - spent0[0]
        cpu = (time.process_time() + self.extra_cpu_s() - cpu0
               - (self.calibrator.spent_cpu - spent0[1]))
        if calibrate:
            self.calibrator.sample()

        def timed(start: float, end: float) -> Tuple[float, float]:
            return end - start, self.calibrator.scale(start, end) if calibrate else 1.0

        phases = {name: timed(*interval) for name, interval in spans.items()}
        # The warm figure is the median re-sweep, at its own scale.
        phases["warm_s"] = sorted(
            (timed(*interval) for interval in warm_spans), key=lambda t: t[0] * t[1]
        )[len(warm_spans) // 2]
        pass_wall = (wall1 - wall0 - waited, timed(wall0, wall1)[1])
        return PassOutcome(
            wall=pass_wall,
            cpu=(cpu, pass_wall[1]),
            results=stored_digests,
            attempted=2 * len(self.keys) + p["gets_per_pass"],
            failures=failures,
            phases=phases,
            serve_ms=samples,
        )


WORKLOADS = {cls.name: cls for cls in (ExactInfo, Simulate, StoreServe)}
