"""Layer spans for the traced run, recorded from the benchmark's side.

The traced run wraps the public names that callers resolve — module
functions (rebound in every ``repro`` module that imported them by
name), protocol hook methods, and a few public methods such as
``ResultStore.put`` — so no file under ``src/`` changes.  Every wrapped
call opens a span (layer, start, end, parent, job, thread).  Spans live
in flat arrays in memory and are written once, when the run ends.

A layer's self time is its spans' durations minus the parts covered by
their child spans.  Work that no wrapped call covers — the benchmark's
own job bodies and the gaps between jobs — is reported as
``unattributed``.  :meth:`SpanRecorder.reduce` checks that spans nest
on their thread and lie within the pass wall measured by the pass
itself, and that the layer spans account for all but at most
``MAX_UNATTRIBUTED_SHARE`` of the traced thread time.

The timed runs never install these wrappers: they run the program
untouched, with the metrics registry off.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Span layers, in table order.  ``job`` is the benchmark's own root
#: span around each job and ``wait`` marks the main thread idling while
#: client threads work; neither is a program layer.
SPAN_LAYERS: Tuple[str, ...] = (
    "job",
    "wait",
    "hooks",
    "tree",
    "info",
    "kernels",
    "kernels.sim",
    "analysis",
    "lowerbounds.dp",
    "lowerbounds.hard_dist",
    "topology.run",
    "topology.tree",
    "topology.analysis",
    "runner",
    "net",
    "sampler",
    "store.put",
    "store.get",
    "grid",
    "fabric.sweep",
    "fabric.get",
)

#: Largest share of the traced thread time left to the benchmark's own
#: code (job self time and the gaps between jobs).  Measured at 0.2-3%
#: on every workload, full and tiny scale; more means some layer call
#: escaped its wrapper.
MAX_UNATTRIBUTED_SHARE = 0.10

#: Which span layers make up each program layer of the per-layer table.
TABLE_LAYERS: Dict[str, Tuple[str, ...]] = {
    "protocols": ("hooks",),
    "core.tree": ("tree",),
    "information": ("info",),
    "perf.kernels": ("kernels", "kernels.sim"),
    "core.analysis": ("analysis",),
    "lowerbounds": ("lowerbounds.dp", "lowerbounds.hard_dist"),
    "topology": ("topology.run", "topology.tree", "topology.analysis"),
    "core.runner": ("runner",),
    "net": ("net",),
    "compression": ("sampler",),
    "store": ("store.put", "store.get"),
    "perf.grid": ("grid",),
    "fabric": ("fabric.sweep", "fabric.get"),
}

#: (span layer, module, public names).  ``Class.method`` names wrap a
#: method on the class itself.
FUNCTION_TARGETS: Tuple[Tuple[str, str, Sequence[str]], ...] = (
    ("tree", "repro.core.tree", (
        "transcript_distribution",
        "joint_transcript_distribution",
        "batched_joint_transcript_distribution",
        "reachable_transcripts",
    )),
    ("analysis", "repro.core.analysis", ()),
    ("info", "repro.information.entropy", ()),
    ("info", "repro.information.divergence", ()),
    ("kernels", "repro.perf.kernels", (
        "tree_walk_sorted_leaves",
        "entropy_fast",
        "kl_divergence_fast",
        "mutual_information_fast",
        "conditional_mutual_information_fast",
        "class_conditioned_probabilities",
        "per_player_divergence_sum_fast",
        "minimum_entropy",
    )),
    ("kernels.sim", "repro.perf.kernels", (
        "simulate_trivial_disjointness",
        "simulate_naive_disjointness",
        "simulate_optimal_disjointness",
    )),
    ("lowerbounds.dp", "repro.lowerbounds.optimal_information", ()),
    ("lowerbounds.hard_dist", "repro.lowerbounds.hard_distribution", (
        "and_hard_distribution",
        "and_hard_input_marginal",
        "disjointness_hard_distribution",
    )),
    ("topology.run", "repro.topology.runtime", ("run_on_medium",)),
    ("topology.tree", "repro.topology.tree", (
        "medium_transcript_distribution",
        "medium_joint_transcript_distribution",
    )),
    ("topology.analysis", "repro.topology.analysis", ()),
    ("runner", "repro.core.runner", ("run_protocol",)),
    ("net", "repro.net.runner", ("run_networked",)),
    ("sampler", "repro.compression.sampling", (
        "simulate_sampling_round",
        "run_naive_dart_protocol",
        "BatchedDartSampler.sample_round",
    )),
    ("store.put", "repro.store.store", ("ResultStore.put",)),
    ("store.get", "repro.store.store", ("ResultStore.get",)),
    ("grid", "repro.store.sweep", ("checkpointed_map_grid",)),
    ("grid", "repro.perf.grid", ("map_grid",)),
    ("fabric.sweep", "repro.fabric.sweep", ("fabric_sweep",)),
    ("fabric.get", "repro.fabric.service", ("FabricClient.get_many",)),
)

#: Protocol hooks, wrapped on every concrete protocol class.
HOOK_NAMES: Tuple[str, ...] = (
    "initial_state",
    "advance_state",
    "next_speaker",
    "next_edge",
    "message_distribution",
    "output",
)

#: Model-object constructions counted (no spans: they are far too
#: frequent and always nested inside a layer call).
MODEL_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("model.transcripts", "repro.core.model", "Transcript"),
    ("model.transcripts", "repro.topology.medium", "LinkTranscript"),
    ("model.messages", "repro.core.model", "Message"),
    ("model.messages", "repro.topology.medium", "LinkMessage"),
    ("model.distributions", "repro.information.distribution",
     "DiscreteDistribution"),
)


class SpanRecorder:
    """In-memory span store: one row per wrapped call.  Create it on the
    main thread, which becomes thread 0."""

    def __init__(self) -> None:
        self.layer = array("B")
        self.thread = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.counts: Dict[str, int] = {}
        self.info_outcomes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: Dict[int, int] = {threading.get_ident(): 0}
        self._index = {name: i for i, name in enumerate(SPAN_LAYERS)}

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.job = -1
        return stack

    def set_job(self, job: int) -> None:
        self._stack()
        self._local.job = job

    def begin(self, layer: str) -> int:
        stack = self._stack()
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            index = len(self.start)
            self.layer.append(self._index[layer])
            self.thread.append(thread)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self._local.job)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def clear(self) -> None:
        for name in ("layer", "thread", "start", "end", "parent", "job"):
            del getattr(self, name)[:]
        self.counts = {}
        self.info_outcomes = 0

    # -- reduction ------------------------------------------------------
    def reduce(self, wall: float) -> Dict[str, Any]:
        """Self time per span layer, the unattributed remainder, and the
        accounting check, for a traced pass of main-thread ``wall``
        seconds recorded since the last :meth:`clear`."""
        import numpy as np

        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.uint8)
        thread = np.frombuffer(self.thread, dtype=np.uint8)
        problems: List[str] = []
        if n and float(end.min()) == 0.0:
            problems.append("a span was never closed")
        duration = end - start
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=duration[child], minlength=n
        )
        self_time = duration - covered
        if n and float(self_time.min()) < -1e-6:
            problems.append("children outlast their parent span")
        if child.any():
            p = parent[child]
            if (start[child] < start[p]).any() or (end[child] > end[p]).any():
                problems.append("a child span lies outside its parent")
            if (thread[child] != thread[p]).any():
                problems.append("a child span sits on another thread")
        per_layer = np.bincount(layer, weights=self_time, minlength=len(SPAN_LAYERS))
        calls = np.bincount(layer, minlength=len(SPAN_LAYERS))
        self_s = {name: float(per_layer[i]) for i, name in enumerate(SPAN_LAYERS)}
        call_counts = {name: int(calls[i]) for i, name in enumerate(SPAN_LAYERS)}

        # Thread time the pass used: the main thread's wall, minus the
        # time it sat waiting for client threads, plus those threads'
        # root spans.
        roots = ~child
        main_roots = roots & (thread == 0)
        client_roots = roots & (thread != 0)
        busy = wall - self_s["wait"] + float(duration[client_roots].sum())
        gaps = wall - float(duration[main_roots].sum())
        if gaps < -1e-6:
            problems.append("main-thread root spans outlast the pass wall")
        unattributed = self_s["job"] + gaps
        if busy > 0 and unattributed / busy > MAX_UNATTRIBUTED_SHARE:
            problems.append(
                f"layer spans account for only {1 - unattributed / busy:.1%} "
                f"of the traced thread time (at least "
                f"{1 - MAX_UNATTRIBUTED_SHARE:.0%} expected): a layer call "
                f"is no longer wrapped"
            )
        return {
            "spans": n,
            "busy_s": busy,
            "self_s": self_s,
            "calls": call_counts,
            "unattributed_s": unattributed,
            "problems": problems,
        }

    def write(self, path: str) -> None:
        """Persist the recorded spans (one array per column)."""
        import numpy as np

        np.savez_compressed(
            path,
            layers=np.array(SPAN_LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.uint8),
            thread=np.frombuffer(self.thread, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
        )


def _wrap_function(fn: Callable, layer: str, rec: SpanRecorder) -> Callable:
    if layer == "info":
        from repro.information.distribution import (
            DiscreteDistribution,
            JointDistribution,
        )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            law = args[0] if args else None
            if isinstance(law, JointDistribution):
                law = law.distribution()
            if isinstance(law, DiscreteDistribution):
                rec.info_outcomes += len(law)
            index = rec.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.finish(index)

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = rec.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(index)

    return wrapper


def _counting_init(init: Callable, name: str, rec: SpanRecorder) -> Callable:
    @functools.wraps(init)
    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        rec.counts[name] = rec.counts.get(name, 0) + 1
        init(self, *args, **kwargs)

    return __init__


def _all_subclasses(base: type) -> List[type]:
    seen: List[type] = [base]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


class Instrumentation:
    """Installs and removes every wrapper; ``install`` after the
    workload's modules are imported so their bindings are found."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self._originals: Dict[int, Tuple[Callable, Callable]] = {}

    def _set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("instrumentation already installed")
        rec = self.recorder
        replaced: Dict[int, Callable] = {}
        for layer, module_name, names in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            for name in names or getattr(module, "__all__"):
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    fn = vars(cls)[method]
                    self._set(cls, method, _wrap_function(fn, layer, rec))
                    continue
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                wrapper = _wrap_function(fn, layer, rec)
                replaced[id(fn)] = wrapper
                self._originals[id(wrapper)] = (wrapper, fn)
        # Rebind every module-level name that resolves to a wrapped
        # function, so ``from x import f`` callers see the wrapper too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for name, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._set(module, name, wrapper)

        from repro.core.model import Protocol
        from repro.topology.protocol import MediumProtocol

        for base in (Protocol, MediumProtocol):
            for cls in _all_subclasses(base):
                for hook in HOOK_NAMES:
                    fn = vars(cls).get(hook)
                    if inspect.isfunction(fn):
                        self._set(cls, hook, _wrap_function(fn, "hooks", rec))

        for count_name, module_name, cls_name in MODEL_COUNTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            init = vars(cls)["__init__"]
            self._set(cls, "__init__", _counting_init(init, count_name, rec))

    def uninstall(self) -> None:
        for owner, name, value, had in reversed(self._undo):
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._undo = []
        # Modules first imported while installed bound the wrappers;
        # give them the originals back too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, name, pair[1])
        self._originals = {}
