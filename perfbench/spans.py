"""In-memory span tracer for the benchmark's traced runs.

Spans are opened by wrappers installed at the names callers look up (module
attributes, class attributes, ``commands.REGISTRY`` entries), so the library
under ``src/`` is measured without being edited. Each finished span keeps its
name, the name of the span that caused it, the run phase, its duration and
its self time (duration minus the part covered by nested spans).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: str | None
    phase: str
    dur_ns: int
    self_ns: int
    tag: str = ""


class Tracer:
    """Single-threaded span recorder: one stack, one list of finished spans."""

    def __init__(self, phase: str = "setup"):
        self.phase = phase
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [name, ns covered by children]

    def wrap(self, name: str, fn, tag=None, on_call=None):
        """Return fn wrapped in a span called `name`. `tag(args)` labels the
        span (e.g. with a worker name); `on_call(args)` sees every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [name, 0]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[1] += dur
                self.spans.append(Span(name, parent[0] if parent else None, self.phase,
                                       dur, dur - frame[1], tag(args) if tag else ""))

        return traced

    def patch(self, owner, attr: str, name: str, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def patch_registry(self, registry: dict):
        """Wrap every worker command as `commands.<name>`."""
        for cmd, (fn, preserve) in list(registry.items()):
            registry[cmd] = (self.wrap(f"commands.{cmd}", fn), preserve)


class RepeatCounter:
    """Counts job-phase calls whose arguments this run already evaluated:
    the work a cache keyed on those arguments would remove."""

    def __init__(self, tracer: Tracer, nargs: int):
        self.tracer, self.nargs = tracer, nargs
        self.seen: set = set()
        self.calls = 0
        self.repeats = 0

    def __call__(self, args):
        if self.tracer.phase != "job":
            return
        key = tuple(float(a) for a in args[: self.nargs])
        self.calls += 1
        self.repeats += key in self.seen
        self.seen.add(key)


def install_worker_side(tracer: Tracer):
    """Spans for code that runs inside a worker: the command registry and
    the layers the commands call, at the names the commands look them up."""
    from fedring import commands, nn

    tracer.patch_registry(commands.REGISTRY)
    tracer.patch(nn, "forward_backward", "nn.forward_backward")
    tracer.patch(commands, "sanitize_lot", "dp.sanitize_lot")


def install_leader_side(tracer: Tracer) -> RepeatCounter:
    """Spans for the leader: worker handles, codecs, the accountant and the
    shared-arithmetic layer. Virtual workers run in the leader's process, so
    the worker-side spans are installed too. Returns the counter of repeated
    (q, sigma, lambda) log-moment evaluations."""
    from fedring import commands, dp, protocol, spdz, train, workers

    install_worker_side(tracer)

    def worker_name(args):
        return args[0].name

    for cls in (workers.VirtualHandle, workers.SocketHandle):
        for op in ("store", "fetch", "delete", "execute"):
            tracer.patch(cls, op, f"workers.{op}", tag=worker_name)
    # the tap deserialises what it records; its own span keeps that cost out
    # of the handle and codec figures
    tracer.patch(workers.TransportTap, "record", "tap")

    for fn in ("serialize_chain", "deserialize_chain", "serialize_command",
               "deserialize_command", "encode_frame", "decode_frame"):
        tracer.patch(protocol, fn, f"protocol.{fn}")
    tracer.patch(train, "serialize_chain", "protocol.serialize_chain")
    tracer.patch(commands, "serialize_chain", "protocol.serialize_chain")

    tracer.patch(dp, "calibrate_sigma", "dp.calibrate_sigma")
    tracer.patch(dp.MomentLedger, "record", "dp.MomentLedger.record")
    moments = RepeatCounter(tracer, 3)
    tracer.patch(dp, "log_moment", "dp.log_moment", on_call=moments)

    for fn in ("share", "materialize", "beaver_mul", "matmul_shared",
               "trunc_shared", "reconstruct"):
        tracer.patch(spdz, fn, f"spdz.{fn}")
    return moments
