"""Outside-in layer tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  It times the simulator from
the outside through two sources:

* the engine's public ``Simulator.set_profiler`` hook, which brackets every
  dispatched handler (a :class:`Tracer` is a valid ``SimProfiler``);
* wrappers around the public functions named in :data:`TARGETS`, patched
  where the caller looks the name up (a class attribute, or a module global
  of the calling module) and restored by :meth:`Tracer.uninstall`.

Every timed call is a span with an id, the id of the span that was open when
it started, and the tracer's run id.  A span's *self* time is its duration
minus the durations of its child spans; a layer's self time is the sum over
its spans, so same-layer recursion (``CompositeLoss`` calling its component
models, ``mica2_grid_tight`` calling ``grid_topology``) is never counted
twice.  Closed spans are kept in flat arrays and written out once the run
ends (:meth:`Tracer.write`).

A wrapper costs time on both sides of its clock reads: inside the span
(charged to the span) and outside it (charged to the caller).  For cheap,
often-called functions that cost would swamp the caller's self time, so
:meth:`Tracer.calibrate` measures both per call and self times subtract
them: ``self = duration - children - inner_cost - n_children * outer_cost``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
import uuid
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.net.packet import FrameKind

__all__ = ["Target", "TARGETS", "Tracer"]

# Pseudo-codes for frames that are not spans of a named function.
_ROOT = -1      # bottom of the stack: time outside every span
_PENDING = -2   # a dispatched handler whose first child span just opened


class Target(NamedTuple):
    """One patch point: ``owner.attr`` in module ``module``.

    ``owner`` is a dotted class path inside the module, ``"*"`` for every
    class of the module that defines ``attr`` itself (subclasses included,
    so an override is wrapped too), or ``""`` for a module global.  With
    ``span=False`` the call is only counted and its time stays with the
    caller.  ``tally`` counts the calls whose arguments satisfy it.
    """

    module: str
    owner: str
    attr: str
    name: str
    layer: str
    span: bool = True
    tally: Optional[Callable[[Tuple[Any, ...]], bool]] = None


def _is_data_frame(args: Tuple[Any, ...]) -> bool:
    return args[1].kind is FrameKind.DATA


_SINK_METHODS = ("on_tx", "on_rx", "on_loss", "on_meta", "on_auth_ok",
                 "on_buffered", "on_auth_drop", "on_duplicate", "on_tracker",
                 "on_enqueue", "on_air", "on_mac_drop", "on_decode",
                 "enter_rx", "exit_rx", "current_frame", "finalize")

#: Every patch point, grouped by layer (the layer names are module names).
TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.engine", "Simulator", "run", "sim.run", "sim"),
    Target("repro.sim.trace", "TraceRecorder", "count",
           "sim.trace.count", "sim.trace"),
    Target("repro.net.radio", "Radio", "_pump", "net.mac.pump", "net.mac"),
    Target("repro.net.radio", "Radio", "_channel_busy",
           "net.mac.channel_busy", "net.mac", span=False),
    Target("repro.net.radio", "Radio", "send",
           "protocols.send", "protocols", span=False),
    Target("repro.net.channel", "*", "should_drop",
           "net.channel.should_drop", "net.channel"),
    Target("repro.protocols.common", "DisseminationNode", "on_receive",
           "protocols.on_receive", "protocols", tally=_is_data_frame),
    Target("repro.core.scheduler", "*", "update_from_snack",
           "core.scheduler.snack_update", "core.scheduler"),
    Target("repro.core.scheduler", "*", "mark_sent",
           "core.scheduler.mark_sent", "core.scheduler"),
    Target("repro.core.scheduler", "*", "next_packet",
           "core.scheduler.next_packet", "core.scheduler"),
    Target("repro.core.verify", "*", "authenticate",
           "core.verify.authenticate", "core.verify"),
    Target("repro.core.verify", "*", "complete_unit",
           "core.verify.complete_unit", "core.verify"),
    Target("repro.core.verify", "*", "handle_signature",
           "core.verify.handle_signature", "core.verify"),
    Target("repro.core.verify", "*", "serving_packets",
           "core.verify.serving_packets", "core.verify"),
    Target("repro.core.verify", "*", "validate_overheard",
           "core.verify.validate_overheard", "core.verify"),
    # LR-Seluge's default code family; other families are not traced.
    Target("repro.erasure.rs", "*", "encode", "erasure.encode", "erasure"),
    Target("repro.erasure.rs", "*", "decode", "erasure.decode", "erasure"),
    Target("repro.core.verify", "", "verify", "crypto.ecdsa_verify", "crypto"),
    Target("repro.core.verify", "", "hash_image", "crypto.hash", "crypto"),
    Target("repro.crypto.merkle", "", "hash_image", "crypto.hash", "crypto"),
    Target("repro.core.verify", "", "verify_merkle_path",
           "crypto.merkle_verify", "crypto"),
    Target("repro.crypto.puzzle", "MessageSpecificPuzzle", "check",
           "crypto.puzzle_check", "crypto"),
    # Set-up steps.
    Target("repro.core.preprocess", "*", "build",
           "core.preprocess.build", "core.preprocess"),
    *(Target("repro.net.topology", "", fn, "net.topology.build",
             "net.topology")
      for fn in ("star_topology", "grid_topology", "mica2_grid_tight")),
    Target("repro.protocols.lr_seluge", "", "generate_keypair",
           "crypto.keygen", "crypto"),
    Target("repro.core.preprocess", "", "sign", "crypto.sign", "crypto"),
    # Recording hooks (only attached on the recorded workload).
    *(Target("repro.obs.flight", cls, m, "obs.sink", "obs")
      for cls in ("FlightRecorder", "CausalRecorder") for m in _SINK_METHODS),
    *(Target("repro.obs.events", "EventLog", m, "obs.sink", "obs")
      for m in ("instant", "begin", "end")),
)


def _owners(module: Any, target: Target) -> List[Any]:
    """The objects whose ``target.attr`` must be replaced."""
    if target.owner == "":
        return [module] if callable(getattr(module, target.attr, None)) else []
    if target.owner != "*":
        owner = module
        for part in target.owner.split("."):
            owner = getattr(owner, part)
        return [owner] if inspect.isfunction(owner.__dict__.get(target.attr)) else []
    found: List[Any] = []
    seen: set = set()
    pending = [c for c in vars(module).values()
               if inspect.isclass(c) and c.__module__ == module.__name__]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if inspect.isfunction(cls.__dict__.get(target.attr)):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Tracer:
    """Span recorder, engine profiler and patch manager for one traced run.

    While the wrappers are installed, every ``Simulator`` that runs must
    have this tracer as its profiler: handler frames opened inside
    ``Simulator.run`` are closed by :meth:`record`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 run_id: Optional[str] = None) -> None:
        self._clock = clock
        self.run_id = run_id or uuid.uuid4().hex
        self.names: List[str] = []
        self.layers: List[str] = []
        self._codes: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.trues: List[int] = []
        self.raised: List[int] = []
        self.tallies: List[int] = []
        #: calls into a layer from a frame of another layer (or no span)
        self.entries: Dict[str, int] = defaultdict(int)
        # Closed spans, one entry per array; the id is assigned at open.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_code = array("l")
        self.span_start = array("d")
        self.span_dur = array("d")
        self._next_id = 0
        #: wrapper seconds per span inside its window / in the caller's
        self.inner_cost = 0.0
        self.outer_cost = 0.0
        #: seconds taken out of self times by the two costs
        self.overhead_removed_s = 0.0
        # Open frames: [span id, code, start, child seconds, layer,
        # number of child spans].
        self._root: List[Any] = [0, _ROOT, 0.0, 0.0, None, 0]
        self._stack: List[List[Any]] = [self._root]
        self._last_clock = 0.0
        self._run_code = self.code("sim.run", "sim")
        self._handler_codes: Dict[Any, int] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- name table -----------------------------------------------------------

    def code(self, name: str, layer: str) -> int:
        """Integer code of span ``name`` (registered on first use)."""
        code = self._codes.get(name)
        if code is None:
            code = len(self.names)
            self._codes[name] = code
            self.names.append(name)
            self.layers.append(layer)
            for column in (self.calls, self.trues, self.raised, self.tallies):
                column.append(0)
            self.self_s.append(0.0)
        return code

    def stat(self, name: str, column: str = "calls") -> float:
        """``calls``/``self_s``/``trues``/``raised``/``tallies`` of a name."""
        code = self._codes.get(name)
        return 0 if code is None else getattr(self, column)[code]

    def layer_self(self, layer: str) -> float:
        """Self seconds summed over every span name of ``layer``."""
        return sum(s for s, lay in zip(self.self_s, self.layers) if lay == layer)

    @property
    def covered_s(self) -> float:
        """Seconds spent inside any top-level span so far."""
        return self._root[3]

    # -- spans ------------------------------------------------------------------

    def enter(self, code: int) -> None:
        """Open a span of ``code`` as a child of the innermost open span."""
        stack = self._stack
        parent = stack[-1]
        if parent[1] == self._run_code:
            # Inside Simulator.run every call comes from a dispatched
            # handler; open its frame now so children can name it as
            # parent.  ``record`` closes it with the engine's timing.
            self._next_id += 1
            parent = [self._next_id, _PENDING, 0.0, 0.0, None, 0]
            stack.append(parent)
        layer = self.layers[code]
        if parent[4] != layer:
            self.entries[layer] += 1
        self._next_id += 1
        stack.append([self._next_id, code, self._clock(), 0.0, layer, 0])

    def exit(self) -> None:
        """Close the innermost open span."""
        end = self._clock()
        frame = self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame[2]
        self._close(frame[0], parent[0], frame[1], frame[2], duration,
                    duration - frame[3], self.inner_cost, frame[5])
        parent[3] += duration
        parent[5] += 1

    def _close(self, span_id: int, parent_id: int, code: int, start: float,
               duration: float, self_time: float, inner: float,
               children: int) -> None:
        removed = inner + children * self.outer_cost
        self.overhead_removed_s += removed
        self.calls[code] += 1
        self.self_s[code] += self_time - removed
        self.span_id.append(span_id)
        self.span_parent.append(parent_id)
        self.span_code.append(code)
        self.span_start.append(start)
        self.span_dur.append(duration)

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as a span."""
        self.enter(self.code(name, layer))
        try:
            yield
        finally:
            self.exit()

    # -- SimProfiler protocol (Simulator.set_profiler) -----------------------

    def clock(self) -> float:
        self._last_clock = now = self._clock()
        return now

    def record(self, fn: Callable[..., Any], args: Tuple[Any, ...],
               elapsed: float, heap_len: int) -> None:
        stack = self._stack
        top = stack[-1]
        if top[1] == _PENDING:
            stack.pop()
            span_id, child, children = top[0], top[3], top[5]
        else:
            self._next_id += 1
            span_id, child, children = self._next_id, 0.0, 0
        run = stack[-1]
        # The engine's clock reads bracket the handler, not a wrapper, so
        # only the children's cost comes off.
        self._close(span_id, run[0], self._handler_code(fn),
                    self._last_clock - elapsed, elapsed, elapsed - child,
                    0.0, children)
        run[3] += elapsed
        run[5] += 1

    def _handler_code(self, fn: Callable[..., Any]) -> int:
        func = getattr(fn, "__func__", fn)
        code = self._handler_codes.get(func)
        if code is None:
            layer = getattr(func, "_perfbench_layer", None)
            if layer is not None:
                name = f"{layer}.event"     # a patched function fired directly
            elif func.__qualname__ == "Radio._finish":
                layer, name = "net.radio", "net.radio.finish"
            elif func.__module__.startswith(
                    ("repro.protocols", "repro.trickle", "repro.sim.process")):
                # Timer._fire, Trickle intervals and directly scheduled node
                # methods: every timer in the benchmark belongs to a node.
                layer, name = "protocols", "protocols.timer"
            else:
                layer, name = "other", "other.handler"
            code = self._handler_codes[func] = self.code(name, layer)
        return code

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure :attr:`inner_cost` and :attr:`outer_cost` of a span.

        A scratch tracer times ``calls`` calls of a wrapped no-op inside one
        parent span, beside an empty loop and a loop of bare no-op calls;
        the costs are medians over ``repeats``.  Call it before the traced
        run, outside any timed window.
        """
        clock = self._clock
        target = Target("", "", "noop", "calibration.noop", "calibration")
        inner: List[float] = []
        outer: List[float] = []

        def noop() -> None:
            return None

        for _ in range(repeats):
            scratch = Tracer(clock=clock, run_id="calibration")
            wrapped = scratch.wrap(noop, target)
            start = clock()
            for _ in range(calls):
                pass
            empty = clock() - start
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            scratch.enter(scratch.code("calibration.parent", "calibration"))
            start = clock()
            for _ in range(calls):
                wrapped()
            traced = clock() - start
            scratch.exit()
            children = scratch.stat("calibration.noop", "self_s")
            # traced = calls * (loop + outer) + children, and each child's
            # duration is the no-op (bare - empty per call) plus inner.
            outer.append((traced - children - empty) / calls)
            inner.append((children - (bare - empty)) / calls)
        self.inner_cost = statistics.median(inner)
        self.outer_cost = statistics.median(outer)

    # -- patching -----------------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        """A wrapper of ``fn`` that times (or counts) each call."""
        code = self.code(target.name, target.layer)
        calls, trues, raised, tallies = (self.calls, self.trues, self.raised,
                                         self.tallies)
        tally = target.tally
        enter, exit_ = self.enter, self.exit

        if target.span:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if tally is not None and tally(args):
                    tallies[code] += 1
                enter(code)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    raised[code] += 1
                    exit_()
                    raise
                exit_()
                if result is True:
                    trues[code] += 1
                return result
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[code] += 1
                result = fn(*args, **kwargs)
                if result is True:
                    trues[code] += 1
                return result

        wrapper.__wrapped__ = fn                     # type: ignore[attr-defined]
        wrapper._perfbench_layer = target.layer      # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", target.attr)
        return wrapper

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Patch every target; :meth:`uninstall` puts the originals back."""
        try:
            for target in targets:
                module = importlib.import_module(target.module)
                for owner in _owners(module, target):
                    original = (owner.__dict__[target.attr]
                                if inspect.isclass(owner)
                                else getattr(owner, target.attr))
                    setattr(owner, target.attr, self.wrap(original, target))
                    self._patched.append((owner, target.attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Sequence[Target] = TARGETS) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_id)

    def write(self, path: Any) -> None:
        """Write every closed span (id, parent, name, start, duration)."""
        import numpy as np

        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            layers=np.array(self.layers),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            code=np.asarray(self.span_code, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            duration=np.frombuffer(self.span_dur, dtype=np.float64),
        )
