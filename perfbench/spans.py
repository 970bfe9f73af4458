"""Span recording around drivecoach's public entry points, and the per-layer
metrics derived from the spans.

The recorder lives only in benchmark code: `patched()` swaps each entry
point for a wrapper and puts the original back on exit. Where a caller bound
a function by name at import (`from .nn import adam_step`), the wrapper goes
on the name that caller resolves. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from dataclasses import dataclass


class SpanRecorder:
    """Nested spans of one single-threaded run: [name, start, end, parent, attrs]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        span = self.spans[index]
        span[2] = self.clock()
        if attrs:
            span[4].update(attrs)

    def wrap(self, name: str, fn, before=None, after=None, when=None):
        """fn wrapped in a span; before(*args) and after(result) add attributes,
        and when(*args), if given, decides whether the call is recorded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            index = self.open(name, before(*args, **kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.close(index, {"error": type(err).__name__})
                raise
            self.close(index, after(result) if after else None)
            return result

        return wrapper


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: owner.attr becomes a span called name."""

    name: str
    owner: object
    attr: str
    before: object = None
    after: object = None
    when: object = None


@contextlib.contextmanager
def patched(recorder: SpanRecorder, targets):
    """Install wrappers for the targets; restore the originals on exit."""
    saved = []
    try:
        for t in targets:
            original = t.owner.__dict__[t.attr]
            saved.append((t.owner, t.attr, original))
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapped = recorder.wrap(t.name, fn, t.before, t.after, t.when)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            setattr(t.owner, t.attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def drivecoach_targets():
    """Every public entry point the per-layer metrics read, by layer."""
    import drivecoach.risk as risk
    import drivecoach.sim.engine as engine
    import drivecoach.teacher.agent as agent
    import drivecoach.trainer as trainer
    from drivecoach.nn import Tensor
    from drivecoach.policy import FusionPolicyNet

    def batched(_net, obs, *args, **kwargs):
        # single observations come from act(), whose span already covers them
        return getattr(obs, "ndim", 1) == 2

    return [
        Target("sim.step", engine.TrafficEnv, "step",
               before=lambda env, *a, **k: {"vehicles": len(env.state.vehicles)}),
        Target("sim.reset", engine.TrafficEnv, "reset"),
        Target("sim.observe", engine, "observe"),
        Target("sim.observe", agent, "observe"),
        Target("sim.observe", trainer, "observe"),
        Target("risk.assess", risk, "assess"),
        Target("risk.assess", agent, "assess"),
        Target("teacher.decide", agent.TeacherAgent, "decide_step",
               after=lambda result: {"source": result[0].source}),
        Target("teacher.reflect", agent.TeacherAgent, "run_reflection"),
        Target("policy.act", FusionPolicyNet, "act"),
        Target("policy.forward", FusionPolicyNet, "forward",
               before=lambda _net, obs, *a, **k: {"batch": len(obs)}, when=batched),
        Target("nn.backward", Tensor, "backward"),
        Target("nn.adam_step", trainer, "adam_step"),
        Target("nn.checkpoint.save", trainer, "save_checkpoint"),
        Target("nn.checkpoint.load", trainer, "load_checkpoint"),
        Target("trainer.run", trainer.Trainer, "run"),
        Target("trainer.update", trainer.Trainer, "update",
               before=lambda t, *a, **k: {"samples": t.buffer.n * t.cfg.epochs}),
        Target("trainer.evaluate", trainer.Trainer, "evaluate"),
        Target("trainer.resume", trainer.Trainer, "resume"),
    ]


# --- derivation ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_q(n: int) -> int:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    return 99 if n >= 1000 else 90


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def wall_time(spans) -> float:
    """Time covered by root spans: the run wall time of the traced operations."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


class LayerStats:
    """Per-span-name durations (ms) and self time (s) of one set of spans."""

    def __init__(self, spans, repeats: int):
        self.spans = spans
        self.repeats = repeats
        self.wall = wall_time(spans)
        own = self_times(spans)
        self.ms: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        for span, self_s in zip(spans, own):
            self.ms.setdefault(span[0], []).append(1000.0 * (span[2] - span[1]))
            self.self_s[span[0]] = self.self_s.get(span[0], 0.0) + self_s

    def where(self, name: str, test=lambda attrs: True):
        return [s for s in self.spans if s[0] == name and test(s[4])]

    def calls(self, name: str):
        """Calls per traced repeat; each repeat does the same work."""
        n = len(self.ms.get(name, []))
        return n // self.repeats, n

    def p50(self, name: str):
        ms = self.ms.get(name, [])
        return (statistics.median(ms) if ms else 0.0), len(ms)

    def tail(self, name: str):
        ms = self.ms.get(name, [])
        return percentile(ms, tail_q(len(ms))), len(ms)

    def self_share(self, name: str):
        n = len(self.ms.get(name, []))
        return (self.self_s.get(name, 0.0) / self.wall if self.wall else 0.0), n


def layer_metrics(spans, repeats: int, checkpoint_bytes: int, overhead: float,
                  n_pairs: int) -> dict:
    """Every per-layer metric as name -> (value, n); counts are per repeat."""
    st = LayerStats(spans, repeats)
    m = {}
    m["sim.step.calls"] = st.calls("sim.step")
    m["sim.step.ms_p50"] = st.p50("sim.step")
    m["sim.step.ms_p99"] = st.tail("sim.step")
    m["sim.step.self_share"] = st.self_share("sim.step")
    per_vehicle = [1e6 * (s[2] - s[1]) / s[4]["vehicles"] for s in st.where("sim.step")]
    m["sim.step.us_per_vehicle"] = (
        statistics.median(per_vehicle) if per_vehicle else 0.0), len(per_vehicle)
    m["sim.reset.ms_p50"] = st.p50("sim.reset")
    m["sim.observe.ms_p50"] = st.p50("sim.observe")

    m["risk.assess.calls"] = st.calls("risk.assess")
    m["risk.assess.ms_p50"] = st.p50("risk.assess")
    m["risk.assess.self_share"] = st.self_share("risk.assess")

    decisions = st.where("teacher.decide")
    m["teacher.decide.calls"] = st.calls("teacher.decide")
    m["teacher.decide.failed"] = (
        sum("error" in s[4] for s in decisions) // repeats, len(decisions))
    m["teacher.decide.ms_p50"] = st.p50("teacher.decide")
    m["teacher.decide.ms_p99"] = st.tail("teacher.decide")
    fallback = sum(s[4].get("source") == "fallback" for s in decisions)
    m["teacher.decide.fallback_share"] = (
        fallback / len(decisions) if decisions else 0.0), len(decisions)
    m["teacher.decide.self_share"] = st.self_share("teacher.decide")
    m["teacher.reflect.calls"] = st.calls("teacher.reflect")
    m["teacher.reflect.ms_p50"] = st.p50("teacher.reflect")

    m["policy.act.calls"] = st.calls("policy.act")
    m["policy.act.ms_p50"] = st.p50("policy.act")
    m["policy.act.ms_p99"] = st.tail("policy.act")
    m["policy.act.self_share"] = st.self_share("policy.act")
    b128 = [1000.0 * (s[2] - s[1])
            for s in st.where("policy.forward", lambda a: a["batch"] == 128)]
    m["policy.forward_b128.ms_p50"] = (statistics.median(b128) if b128 else 0.0), len(b128)

    m["nn.backward.ms_p50"] = st.p50("nn.backward")
    m["nn.adam_step.ms_p50"] = st.p50("nn.adam_step")
    m["nn.checkpoint.save_ms"] = st.p50("nn.checkpoint.save")
    m["nn.checkpoint.load_ms"] = st.p50("nn.checkpoint.load")
    m["nn.checkpoint.bytes"] = checkpoint_bytes, int(checkpoint_bytes > 0)

    updates = st.where("trainer.update", lambda a: "error" not in a)
    update_s = sum(s[2] - s[1] for s in updates)
    m["trainer.update.calls"] = st.calls("trainer.update")
    m["trainer.update.ms_p50"] = st.p50("trainer.update")
    m["trainer.update.samples_per_s"] = (
        sum(s[4]["samples"] for s in updates) / update_s if update_s else 0.0), len(updates)
    m["trainer.update.self_share"] = st.self_share("trainer.update")
    evaluate_ids = {i for i, s in enumerate(spans) if s[0] == "trainer.evaluate"}
    eval_steps = sum(1 for s in spans if s[0] == "sim.step" and s[3] in evaluate_ids)
    m["trainer.evaluate.calls"] = st.calls("trainer.evaluate")
    m["trainer.evaluate.steps"] = eval_steps // repeats, eval_steps
    m["trainer.evaluate.self_share"] = st.self_share("trainer.evaluate")
    m["trainer.run.self_share"] = st.self_share("trainer.run")
    m["trace.overhead"] = overhead, n_pairs
    return m
