"""Traced runs: the per-layer ledger.

A traced run first drives the pool over HTTP exactly as the end-to-end
run does (for the HTTP edge, the executor's queue and batch figures and
the generator's lateness), then replays the same request bodies in
process through the program's public functions.  Replayed requests
alternate between untraced and traced, so the tracing overhead is the
difference of two interleaved samples.  For train_suite, untraced and
traced ``train()`` calls alternate the same way.

Spans come only from timing wrappers this module puts around public
functions and methods, and each wrapper is removed after its request.
Nested spans are charged to their parent's child time, so each layer
reports its self time; whatever the spans leave uncovered is reported as
``trace.unaccounted_ms``.  Conv layers are found by walking the models
for instances of classes defined in ``repro.models.convs``; kernel calls
are counted by a subclass of the active backend passed to
``repro.nn.backend.use_backend`` (via ``EngineConfig.backend`` when
serving).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from perfbench import inputs, serving, training
from perfbench.common import BenchError, Outcome, median, ms, percentile

CONV_LAYERS = 5
#: per-layer metrics of layers a workload never runs; it reports them as 0
SERVING_ONLY = (
    "http.overhead_p50_ms", "http.overhead_p90_ms", "http.json_decode_ms",
    "http.json_encode_ms", "gen.late_p90_ms", "spice.parse_ms",
    "fingerprint_ms", "cache.lookup_ms", "cache.hit_ratio", "cache.evictions",
    "cache.bytes", "graph.build_ms", "executor.queue_ms",
    "executor.batch_size", "api.forward_ms", "api.assemble_ms",
)
TRAINING_ONLY = (
    "train.forward_ms", "train.backward_ms", "train.optim_ms", "train.inputs_s",
)
#: spans every traced run of a workload must record calls for
MODEL_SPANS = ("encoder", "readout") + tuple(f"conv.{i}" for i in range(CONV_LAYERS))
HOT_SPANS = MODEL_SPANS + (
    "http.json_decode", "http.json_encode", "spice.parse", "fingerprint",
    "cache.lookup", "api.assemble", "api.forward",
)
COLD_SPANS = HOT_SPANS + ("graph.build", "inputs.build")
TRAIN_SPANS = MODEL_SPANS + (
    "train.forward", "train.backward", "train.optim", "train.inputs",
    "inputs.merge",
)

# ----------------------------------------------------------------------
# Ledger: nested spans with self time
# ----------------------------------------------------------------------
class Ledger:
    """Span totals keyed by layer name: calls, inclusive and self seconds.

    One stack serves every thread: the replays run one request at a time
    (the caller blocks while an executor thread works), so spans never
    interleave.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child seconds]
        self.scoped = 0  # open spans that count kernel calls

    def wrap(self, name: str, fn, *, scope: bool = False):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            self.scoped += scope
            tick = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - tick
                self.scoped -= scope
                self._stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += spent
                self.self_time[name] += spent - frame[1]
                if self._stack:
                    self._stack[-1][1] += spent

        return timed

    def span(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def covered(self) -> float:
        return sum(self.self_time.values())

    def require(self, names) -> None:
        """Fail the traced run when a layer the workload runs recorded no
        call: a wrapper that no longer reaches its layer would read 0 ms."""
        silent = [name for name in names if not self.calls.get(name)]
        if silent:
            raise BenchError(f"traced run: no calls recorded for {silent}")


class Patches:
    """Timing wrappers swapped into the program; :meth:`undo` restores."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: list = []

    def module_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            raise BenchError(f"traced run: {module.__name__}.{attr} is gone")
        setattr(module, attr, self.ledger.wrap(name, original))
        self._undo.append(lambda: setattr(module, attr, original))

    def class_method(self, cls, attr: str, name: str, **kw) -> None:
        """Wrap a method, classmethod or staticmethod defined on *cls*."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            raise BenchError(f"traced run: {cls.__qualname__}.{attr} is gone")
        if isinstance(raw, (classmethod, staticmethod)):
            patched = staticmethod(self.ledger.wrap(name, getattr(cls, attr), **kw))
        else:
            patched = self.ledger.wrap(name, raw, **kw)
        setattr(cls, attr, patched)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def attribute(self, obj, attr: str, value) -> None:
        original = getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, original))

    def instance_method(self, obj, attr: str, name: str, **kw) -> None:
        setattr(obj, attr, self.ledger.wrap(name, getattr(obj, attr), **kw))
        self._undo.append(lambda: vars(obj).pop(attr, None))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def model_layers(root) -> list[tuple[str, object]]:
    """``(layer name, module)`` for every encoder, conv and readout.

    Walks plain containers and ``repro`` objects from *root*.  A conv's
    index is its position in the list that holds it.
    """
    from repro.nn import Module

    found: list[tuple[str, object]] = []
    seen: set[int] = set()

    def walk(obj, attr: str, index, depth: int) -> None:
        if depth > 8 or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Module):
            module = type(obj).__module__
            if module.startswith("repro.models.convs"):
                found.append((f"conv.{index if index is not None else 0}", obj))
                return
            if module.startswith("repro.models.encoder"):
                found.append(("encoder", obj))
                return
            if attr == "readout":
                found.append(("readout", obj))
                return
        if isinstance(obj, dict):
            for value in obj.values():
                walk(value, attr, None, depth + 1)
        elif isinstance(obj, (list, tuple)):
            for position, value in enumerate(obj):
                walk(value, attr, position, depth + 1)
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            for name, value in vars(obj).items():
                if not isinstance(value, np.ndarray):
                    walk(value, name, None, depth + 1)

    walk(root, "", None, 0)
    return found


def counting_backend(ledger: Ledger):
    """A subclass of the active kernel backend that counts outer kernel
    calls made inside counting spans (None when the hook is gone)."""
    try:
        from repro.nn.backend import KernelBackend, get_backend
    except ImportError:
        return None
    base = type(get_backend())
    depth = [0]
    counts = {"calls": 0}

    def counted(attr):
        method = getattr(base, attr)

        def call(self, *args, **kwargs):
            if depth[0] == 0 and ledger.scoped:
                counts["calls"] += 1
            depth[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        return call

    kernels = [
        attr for attr, value in vars(KernelBackend).items()
        if callable(value) and not attr.startswith("_")
    ]
    cls = type(
        "CountingBackend", (base,), {attr: counted(attr) for attr in kernels}
    )
    backend = cls()
    backend.counts = counts
    return backend


def patch_program(patches: Patches) -> None:
    """Wrappers shared by the serving and training replays."""
    from repro.models.inputs import GraphInputs
    from repro.nn.plan import SegmentPlan

    patches.class_method(GraphInputs, "from_graph", "inputs.build")
    patches.class_method(GraphInputs, "merge_graphs", "inputs.merge")
    patches.class_method(SegmentPlan, "build", "inputs.plans")


def patch_models(patches: Patches, root) -> None:
    for name, module in model_layers(root):
        patches.instance_method(module, "forward", name)


# ----------------------------------------------------------------------
# Serving replay
# ----------------------------------------------------------------------
def handle(engine, body: bytes, ledger: Ledger | None) -> bytes:
    """What the HTTP handler does with a body, through public functions."""
    from repro.serve.http import request_from_json

    def decode():
        payload = json.loads(body)
        if "items" in payload:
            return [request_from_json(item) for item in payload["items"]]
        return request_from_json(payload)

    def encode(result):
        if isinstance(result, list):
            return json.dumps({"results": [r.to_json_dict() for r in result]}).encode()
        return json.dumps(result.to_json_dict()).encode()

    if ledger is None:
        request = decode()
        if isinstance(request, list):
            return encode(engine.predict_batch(request))
        return encode(engine.predict(request))
    request = ledger.span("http.json_decode", decode)
    if isinstance(request, list):
        result = engine.predict_batch(request)
    else:
        result = engine.predict(request)
    return ledger.span("http.json_encode", encode, result)


def serving_patches(engine, ledger: Ledger, backend) -> Patches:
    import dataclasses

    import repro.graph.builder
    import repro.serve.cache
    from repro.api.types import PredictionRequest

    patches = Patches(ledger)
    if backend is not None:
        patches.attribute(
            engine, "config", dataclasses.replace(engine.config, backend=backend)
        )
    patch_program(patches)
    patches.class_method(PredictionRequest, "resolve_circuit", "spice.parse")
    patches.module_function(repro.serve.cache, "circuit_fingerprint", "fingerprint")
    patches.module_function(repro.graph.builder, "build_graph", "graph.build")
    patches.instance_method(engine.cache, "lookup", "cache.lookup")
    patches.instance_method(engine, "predict", "api.assemble")
    patches.instance_method(engine, "predict_batch", "api.assemble")
    for entry in engine.registry.entries():
        patches.instance_method(entry.adapter, "predict_works", "api.forward", scope=True)
        patch_models(patches, entry.model)
    return patches


def replay_serving(outcome, engine, ledger, backend, bodies, expected_of, seconds):
    """Alternate untraced and traced handling of request bodies for *seconds*.

    ``bodies(i, traced)`` gives the i-th body.  Pairs run in alternating
    order (untraced first, then traced first) so neither side gains from
    going second.  Returns the traced and the untraced request times.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while index < 4 or time.perf_counter() - start < seconds:
        for trace in ((False, True) if index % 2 == 0 else (True, False)):
            body = bodies(index, trace)
            if trace:
                patches = serving_patches(engine, ledger, backend)
                tick = time.perf_counter()
                try:
                    data = handle(engine, body, ledger)
                finally:
                    spent = time.perf_counter() - tick
                    patches.undo()
                traced.append(spent)
            else:
                tick = time.perf_counter()
                data = handle(engine, body, None)
                untraced.append(time.perf_counter() - tick)
            serving.check_samples(outcome, [_Reply(index, data)], expected_of)
        index += 1
    return traced, untraced


def kernel_figure(outcome: Outcome, ledger: Ledger, backend) -> None:
    """Outer kernel calls per model forward (one encoder call each)."""
    if backend is None:
        outcome.absent.add("kernel_calls")
        return
    forwards = max(1, ledger.calls.get("encoder", 0))
    outcome.set("kernel_calls", backend.counts["calls"] / forwards, "count")


class _Reply:
    """A replayed response in the shape :func:`serving.check_samples` reads."""

    status = 200

    def __init__(self, index: int, body: bytes):
        self.index, self.body = index, body


def report_layers(outcome: Outcome, ledger: Ledger, per_request: int,
                  traced: list[float], untraced: list[float]) -> None:
    """Serving layers: mean self time per circuit, shares, trace residual."""
    units = len(traced) * per_request
    per = lambda name: ms(ledger.self_time.get(name, 0.0) / units)  # noqa: E731
    outcome.set("spice.parse_ms", per("spice.parse"), "ms")
    outcome.set("fingerprint_ms", per("fingerprint"), "ms")
    outcome.set("cache.lookup_ms", per("cache.lookup"), "ms")
    outcome.set("graph.build_ms", per("graph.build"), "ms")
    outcome.set("inputs.build_ms", per("inputs.build") + per("inputs.plans"), "ms")
    outcome.set("inputs.merge_ms", per("inputs.merge"), "ms")
    outcome.set("encoder_ms", per("encoder"), "ms")
    outcome.set("readout_ms", per("readout"), "ms")
    convs = 0.0
    for index in range(CONV_LAYERS):
        value = per(f"conv.{index}")
        convs += value
        outcome.set(f"conv.{index}_ms", value, "ms")
    outcome.set("convs_ms", convs, "ms")
    forward_ms = ms(ledger.inclusive.get("api.forward", 0.0) / units)
    outcome.set("convs.share", convs / forward_ms if forward_ms else 0.0, "ratio")
    outcome.set("http.json_decode_ms", per("http.json_decode"), "ms")
    outcome.set("http.json_encode_ms", per("http.json_encode"), "ms")
    outcome.set("api.assemble_ms", per("api.assemble"), "ms")
    outcome.set("api.forward_ms", forward_ms, "ms")
    overhead = float(np.mean(traced) - np.mean(untraced)) / per_request
    outcome.set("trace.overhead_ms", ms(overhead), "ms")
    outcome.set(
        "trace.unaccounted_ms", ms((sum(traced) - ledger.covered()) / units), "ms"
    )


def server_seconds(items) -> float:
    """Server time of one response from its items' ``timing``.

    Items answered by one ``predict_works`` call share the exact
    ``inference_s`` value.  Such a group ends after its queue wait, the
    one-by-one parse and graph work of all its items (``graph_s``) and the
    shared forward; the response is ready when its last group ends.
    """
    groups: dict[float, list[dict]] = defaultdict(list)
    for item in items:
        groups[item["timing"]["inference_s"]].append(item["timing"])
    return max(
        max(t["queue_s"] for t in group)
        + sum(t["graph_s"] for t in group)
        + inference
        for inference, group in groups.items()
    )


def http_edge(outcome: Outcome, samples) -> None:
    """HTTP overhead and executor figures from the server's own timings."""
    overhead, queue, batch = [], [], []
    for sample in samples:
        if sample.status != 200:
            continue
        payload = json.loads(sample.body)
        items = payload["results"] if "results" in payload else [payload]
        overhead.append(sample.done - sample.sent - server_seconds(items))
        queue += [i["timing"]["queue_s"] for i in items]
        batch += [i["timing"]["batch_size"] for i in items]
    outcome.set("http.overhead_p50_ms", ms(median(overhead)), "ms")
    outcome.set("http.overhead_p90_ms", ms(percentile(overhead, 0.90)), "ms")
    outcome.set("executor.queue_ms", ms(float(np.mean(queue))), "ms")
    outcome.set("executor.batch_size", float(np.mean(batch)), "count")


def cache_figures(outcome: Outcome, cache, before: tuple[int, int, int]) -> None:
    hits = cache.hits - before[0]
    misses = cache.misses - before[1]
    lookups = max(1, hits + misses)
    outcome.set("cache.hit_ratio", hits / lookups, "ratio")
    outcome.set("cache.evictions", (cache.evictions - before[2]) / lookups, "1/lookup")
    outcome.set("cache.bytes", float(cache.current_bytes()), "bytes")


def replay_engine(models_root: str, **config):
    """An in-process engine with the pool's serving settings."""
    from repro.api.engine import Engine, EngineConfig

    return Engine(models_root, config=EngineConfig(dtype="float32", **config))


def trace_hot(seed: int, seconds: float, work: str) -> Outcome:
    outcome = Outcome()
    models_root, working, ref, bodies = serving.hot_plan(seed, work)
    picks = serving.hot_picks(seed, len(working), seconds)
    expected = [ref[working[pick].name] for pick in picks]
    warm_samples = []
    with serving.started(
        models_root, work, outcome, serving.hot_warm(bodies, warm_samples),
        serving.CONNECTIONS_HOT, count=1,
    ) as (_, conns, _):
        samples, busy, _ = serving.hot_traffic(
            outcome, conns, bodies, picks, expected, seconds / 4, seconds / 4
        )
    serving.check_samples(outcome, warm_samples, lambda i: [ref[working[i].name]])
    timed = serving.after_warmup(samples)
    outcome.set("gen.late_p90_ms", ms(percentile([s.late for s in timed], 0.90)), "ms")
    http_edge(outcome, busy)

    ledger = Ledger()
    backend = counting_backend(ledger)
    engine = replay_engine(models_root)
    try:
        for body in bodies:
            handle(engine, body, None)
        before = (engine.cache.hits, engine.cache.misses, engine.cache.evictions)
        traced, untraced = replay_serving(
            outcome, engine, ledger, backend,
            lambda i, trace: bodies[picks[i % len(picks)]],
            lambda i: [expected[i % len(expected)]],
            seconds / 2,
        )
        cache_figures(outcome, engine.cache, before)
    finally:
        engine.close()
    ledger.require(HOT_SPANS)
    report_layers(outcome, ledger, 1, traced, untraced)
    kernel_figure(outcome, ledger, backend)
    outcome.idle.update(TRAINING_ONLY)
    return outcome


def trace_cold(seed: int, seconds: float, work: str) -> Outcome:
    outcome = Outcome()
    models_root, strata, ref = serving.cold_plan(seed, work)
    expected_of = lambda i: serving.cold_expected(strata, ref, i)  # noqa: E731
    warm_samples = []
    with serving.cold_started(
        models_root, work, outcome, strata, seed, warm_samples, count=1
    ) as (_, conns, _):
        samples, _ = serving.cold_traffic(
            outcome, conns, strata, ref, seed, seconds / 2
        )
    serving.check_samples(outcome, warm_samples, expected_of)
    http_edge(outcome, samples)
    outcome.idle.add("gen.late_p90_ms")  # a closed loop has no schedule

    ledger = Ledger()
    backend = counting_backend(ledger)
    engine = replay_engine(
        models_root, cache_size=serving.COLD_CACHE_ENTRIES, workers=1
    )
    try:
        handle(engine, serving.cold_body(strata, seed, 0, "warm"), None)
        before = (engine.cache.hits, engine.cache.misses, engine.cache.evictions)
        traced, untraced = replay_serving(
            outcome, engine, ledger, backend,
            lambda i, trace: serving.cold_body(
                strata, seed, i, "traced" if trace else "untraced"
            ),
            expected_of, seconds / 2,
        )
        cache_figures(outcome, engine.cache, before)
    finally:
        engine.close()
    ledger.require(COLD_SPANS)
    report_layers(outcome, ledger, serving.COLD_ITEMS, traced, untraced)
    kernel_figure(outcome, ledger, backend)
    outcome.idle.update(TRAINING_ONLY)
    return outcome


def run(workload: str, seed: int, seconds: float, work: str) -> Outcome:
    return {
        "serve_hot": trace_hot,
        "serve_cold": trace_cold,
        "train_suite": trace_train,
    }[workload](seed, seconds, work)


def trace_train(seed: int, seconds: float, work: str) -> Outcome:
    """Alternate untraced and traced ``train()`` calls on the seed's bundle."""
    import contextlib

    from repro.flows import train
    from repro.flows.runtime import MergedInputsCache, RuntimeConfig, TrainCallback
    from repro.nn import Tensor
    from repro.nn.backend import use_backend
    from repro.nn.optim import Adam

    outcome = Outcome()
    data = inputs.bundle(seed)
    ledger = Ledger()
    backend = counting_backend(ledger)
    untraced, traced, traced_calls = [], [], 0
    check = training.RepeatCheck(outcome)

    start = time.perf_counter()
    while traced_calls < 1 or time.perf_counter() - start < seconds:
        result = train(data, training.plan())
        check(result)
        untraced += training.epoch_steps(result)

        patches = Patches(ledger)

        class Hook(TrainCallback):
            def on_train_start(self, ctx):
                patches.instance_method(ctx.model, "forward", "train.forward", scope=True)
                patch_models(patches, ctx.model)

        cache = MergedInputsCache()
        patch_program(patches)
        patches.class_method(Tensor, "backward", "train.backward")
        patches.class_method(Adam, "step", "train.optim")
        patches.instance_method(cache, "merged", "train.inputs")
        scope = use_backend(backend) if backend is not None else contextlib.nullcontext()
        try:
            with scope:
                result = train(
                    data,
                    training.plan(runtime=RuntimeConfig(callbacks=[Hook()])),
                    inputs_cache=cache,
                )
        finally:
            patches.undo()
        check(result)
        traced += training.epoch_steps(result)
        traced_calls += 1

    ledger.require(TRAIN_SPANS)
    count = len(traced)
    per = lambda name: ms(ledger.self_time.get(name, 0.0) / count)  # noqa: E731
    whole = lambda name: ms(ledger.inclusive.get(name, 0.0) / count)  # noqa: E731
    outcome.idle.update(SERVING_ONLY)
    per_call = lambda name: ms(ledger.self_time.get(name, 0.0) / traced_calls)  # noqa: E731
    outcome.set("inputs.build_ms", per_call("inputs.build") + per_call("inputs.plans"), "ms")
    outcome.set("inputs.merge_ms", per_call("inputs.merge"), "ms")
    outcome.set("train.inputs_s", ledger.inclusive.get("train.inputs", 0.0) / traced_calls, "s")
    outcome.set("encoder_ms", per("encoder"), "ms")
    outcome.set("readout_ms", per("readout"), "ms")
    convs = 0.0
    for index in range(CONV_LAYERS):
        convs += per(f"conv.{index}")
        outcome.set(f"conv.{index}_ms", per(f"conv.{index}"), "ms")
    outcome.set("convs_ms", convs, "ms")
    forward = whole("train.forward")
    outcome.set("convs.share", convs / forward if forward else 0.0, "ratio")
    outcome.set("train.forward_ms", forward, "ms")
    outcome.set("train.backward_ms", whole("train.backward"), "ms")
    outcome.set("train.optim_ms", whole("train.optim"), "ms")
    step = ms(float(np.mean(traced)))
    outcome.set("trace.overhead_ms", step - ms(float(np.mean(untraced))), "ms")
    outcome.set(
        "trace.unaccounted_ms",
        step - forward - whole("train.backward") - whole("train.optim"),
        "ms",
    )
    kernel_figure(outcome, ledger, backend)
    return outcome
