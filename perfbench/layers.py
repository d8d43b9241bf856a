"""Per-layer tracing for the round benchmark, from outside the program.

The tracer adds nothing to ``src/``: it wraps public functions of each
layer where their caller looks them up (``repro.solver.tractable.chase``,
``SyncSession.sync``, ...) for the duration of a traced round, and
removes the wrappers again afterwards, so untraced rounds run the
unmodified code.

Two kinds of wrapper:

* a **span** marks a layer boundary.  Spans nest per thread; a span's
  *self* time is its duration minus the durations of its child spans,
  so the self times of all spans opened during a round add up exactly to
  the duration of that round's root spans.  Nested spans of one layer
  (``sync_delta`` calling ``sync``) are one layer: the outer span's self
  time excludes the inner one, and their self times sum to the outermost
  call minus its other children.
* a **probe** times a cross-cutting primitive (``Instance.copy``,
  ``union``, ``diff``, ``restrict_to``).  Probes are transparent to the
  span tree: their time stays in the calling layer's self time, and a
  probe nested in another probe (``union`` copies) counts in both.

Spans are aggregated in memory per layer name: calls, total ms, self ms
and named counters; nothing is written until the benchmark prints.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class LayerStats:
    """Aggregated spans (or probe calls) of one layer."""

    calls: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0
    #: Time in spans not nested inside another span of the same layer.
    outer_ms: float = 0.0
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0


class LayerTracer:
    """Span/probe aggregation shared by every thread of the benchmark."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.root_ms = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def depth_of(self, layer: str) -> int:
        """How many spans of ``layer`` are open on the calling thread."""
        return sum(1 for frame in self._stack() if frame.layer == layer)

    def count(self, layer: str, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.layers[layer].counters[counter] += amount

    def span(
        self,
        layer: str,
        fn: Callable,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable:
        """Wrap ``fn`` as a span of ``layer``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``on_result(args, before_value, result)`` afterwards;
        both run outside the timed interval.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            seen = before(args, kwargs) if before is not None else None
            frame = _Frame(layer)
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                with tracer._lock:
                    stats = tracer.layers[layer]
                    stats.calls += 1
                    stats.total_ms += elapsed * 1000.0
                    stats.self_ms += (elapsed - frame.child_s) * 1000.0
                    if all(open_.layer != layer for open_ in stack):
                        stats.outer_ms += elapsed * 1000.0
                    if stack:
                        stack[-1].child_s += elapsed
                    else:
                        tracer.root_ms += elapsed * 1000.0
            if on_result is not None:
                on_result(args, seen, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def probe(
        self, layer: str, fn: Callable, facts: Callable[[tuple, Any], int] | None = None
    ) -> Callable:
        """Wrap ``fn`` as a transparent timing probe of ``layer``."""
        tracer = self

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            with tracer._lock:
                stats = tracer.layers[layer]
                stats.calls += 1
                stats.total_ms += elapsed * 1000.0
                if facts is not None:
                    stats.counters["facts_copied"] += facts(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def add_patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Register ``owner.name = make(original)`` for traced rounds."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original, make(original)))

    def install(self) -> None:
        for owner, name, _original, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _wrapped in reversed(self._patches):
            setattr(owner, name, original)


def layer_tracer() -> LayerTracer:
    """A tracer with every layer boundary of the round registered."""
    import repro.core.homomorphism as homomorphism
    import repro.netd.client as netd_client
    import repro.netd.daemon as netd_daemon
    import repro.runtime.journal as journal
    import repro.solver.exists_solution as exists_solution
    import repro.solver.incremental as incremental
    import repro.solver.tractable as tractable
    from repro.core.instance import Instance
    from repro.netd.frames import FrameDecoder
    from repro.runtime.journal import SessionJournal
    from repro.solver.incremental import IncrementalTractableSolver
    from repro.sync.session import SyncSession

    tracer = LayerTracer()

    def sync_outcome(args, _seen, outcome) -> None:
        # Only the outermost sync call of a round reports its delta:
        # sync_delta's inner sync returns the same facts.
        if tracer.depth_of("sync.session") == 0:
            tracer.count("sync.session", "retracted_facts", len(outcome.retracted))
            tracer.count("sync.session", "added_facts", len(outcome.added))

    for name in ("sync", "sync_delta"):
        tracer.add_patch(
            SyncSession, name,
            lambda fn: tracer.span("sync.session", fn, on_result=sync_outcome),
        )

    def solver_outcome(_args, was_warm, result) -> None:
        warm = result.method == "tractable-incremental"
        tracer.count("solver.incremental", "warm", 1 if warm else 0)
        # A warm solver that answers cold fell back (the chase.fallback path).
        tracer.count("solver.incremental", "fallback", 1 if was_warm and not warm else 0)

    tracer.add_patch(
        IncrementalTractableSolver, "solve",
        lambda fn: tracer.span(
            "solver.incremental", fn, on_result=solver_outcome,
            before=lambda args, _kwargs: args[0].warm,
        ),
    )

    def incremental_outcome(_args, _seen, result) -> None:
        tracer.count("core.chase.incremental", "refired", result.refired)
        tracer.count("core.chase.incremental", "retracted", len(result.retracted))

    tracer.add_patch(
        incremental, "chase_incremental",
        lambda fn: tracer.span("core.chase.incremental", fn, on_result=incremental_outcome),
    )
    for module in (incremental, tractable):
        tracer.add_patch(
            module, "chase",
            lambda fn: tracer.span(
                "core.chase.chase", fn,
                on_result=lambda _a, _s, result: tracer.count(
                    "core.chase.chase", "steps", result.step_count
                ),
            ),
        )
        tracer.add_patch(
            module, "decompose_into_blocks",
            lambda fn: tracer.span(
                "core.blocks.decompose", fn,
                on_result=lambda _a, _s, blocks: tracer.count(
                    "core.blocks.decompose", "blocks", len(blocks)
                ),
            ),
        )
    for module in (exists_solution, tractable, incremental):
        tracer.add_patch(
            module, "classify", lambda fn: tracer.span("tractability.classify", fn)
        )
    # Solvers import the embedding test at call time, from the module.
    tracer.add_patch(
        homomorphism, "find_instance_homomorphism",
        lambda fn: tracer.span("core.homomorphism.embed", fn),
    )
    tracer.add_patch(
        exists_solution, "solve", lambda fn: tracer.span("solver.solve", fn)
    )

    tracer.add_patch(
        SessionJournal, "record_round",
        lambda fn: tracer.span("runtime.journal.record", fn),
    )
    tracer.add_patch(
        SessionJournal, "ensure_header",
        lambda fn: tracer.span("runtime.journal.header", fn),
    )
    tracer.add_patch(
        SessionJournal, "load", lambda fn: tracer.span("runtime.journal.load", fn)
    )
    tracer.add_patch(
        journal, "append_jsonl",
        lambda fn: tracer.span("runtime.journal.append", fn),
    )
    tracer.add_patch(
        journal, "instance_to_dict",
        lambda fn: tracer.span("io.serialization.encode", fn),
    )

    tracer.add_patch(
        netd_client, "encode_message",
        lambda fn: tracer.span(
            "netd.frames.encode", fn,
            on_result=lambda _a, _s, data: tracer.count(
                "netd.frames.encode", "bytes", len(data)
            ),
        ),
    )
    tracer.add_patch(
        netd_daemon, "decode_message",
        lambda fn: tracer.span("netd.frames.decode", fn),
    )
    tracer.add_patch(
        FrameDecoder, "feed", lambda fn: tracer.span("netd.frames.decode", fn)
    )

    tracer.add_patch(
        Instance, "copy",
        lambda fn: tracer.probe("core.instance.copy", fn, facts=lambda _a, r: len(r)),
    )
    tracer.add_patch(
        Instance, "union",
        # The copy of the left operand is counted by the nested copy probe.
        lambda fn: tracer.probe("core.instance.union", fn, facts=lambda a, _r: len(a[1])),
    )
    tracer.add_patch(Instance, "diff", lambda fn: tracer.probe("core.instance.diff", fn))
    tracer.add_patch(
        Instance, "restrict_to",
        lambda fn: tracer.probe("core.instance.restrict", fn),
    )
    return tracer
