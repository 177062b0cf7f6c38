"""Outside-in layer tracing for the benchmark's traced runs.

``Tracer.install`` replaces the public entry points of each ``pickands``
layer, where their callers bind them, with wrappers that record spans
(name, layer, start, end, parent, attributes). Nothing inside the program is
edited; the wrappers only time calls and read arguments and return values.
Spans are kept in memory and exported when the run ends.

``layer_metrics`` turns the spans of one run into the per-layer metrics. A
span's self time is its duration minus the part of it that its child spans
cover. A metric whose wrapped entry point is missing, or returns something
other than expected, is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

ESTIMATOR_ENTRIES = (
    "est_definitional", "est_exceedance", "est_difference", "est_argmax",
    "est_dieker_yakir", "est_time_reversed", "est_continuous_dy", "crosscheck",
)
MAXSTABLE_ENTRIES = (
    "est_candidate_theta", "est_extremal_index_blocks", "fdd_probability",
    "max_stable_batch", "sample_max_stable",
)
BOUND_ENTRIES = ("gaussian_lower_bound", "gaussian_power_bound", "levy_lower_bound", "levy_h0_bound")

# Groups of wrapped entry points; a metric is absent when none of its group is wrapped.
METRIC_TARGETS = {
    "models": ("pickands.estimators.w_matrix", "pickands.maxstable.w_matrix"),
    "engine": ("pickands.engine.map_chunks",),
    "engine.reduce_s": ("pickands.engine.reduce_moments",),
    "maxstable.batch": ("pickands.cli.max_stable_batch", "pickands.maxstable.max_stable_batch"),
    "maxstable.export_s": ("pickands.cli._export_samples",),
    "smallball": ("pickands.cli.est_smallball_prob",),
    "bounds.bound_s": tuple(f"pickands.cli.{f}" for f in BOUND_ENTRIES),
}
# Per-layer metric -> (unit, group it needs; None: always available). A time
# is the total span time of its entry points, except the two kernel_s (chunk
# worker time minus the sampler time inside it), engine.overhead_s (map time
# no chunk worker covers) and cli.other_s (invocation time no layer covers).
METRICS = {
    "models.sample_s": ("s", "models"), "models.points": ("count", "models"),
    "models.points_per_s": ("1/s", "models"), "models.calls": ("count", "models"),
    "models.embedding_s": ("s", "models"), "models.iid_s": ("s", "models"),
    "models.line_s": ("s", "models"), "models.levy_s": ("s", "models"),
    "estimators.kernel_s": ("s", "engine"),
    "engine.chunks": ("count", "engine"), "engine.threads": ("count", "engine"),
    "engine.map_s": ("s", "engine"), "engine.busy_s": ("s", "engine"),
    "engine.utilisation": ("share", "engine"), "engine.overhead_s": ("s", "engine"),
    "engine.reduce_s": ("s", "engine.reduce_s"),
    "maxstable.batch_s": ("s", "maxstable.batch"),
    "maxstable.paths_per_sample": ("paths/sample", "maxstable.batch"),
    "maxstable.capped_share": ("share", "maxstable.batch"),
    "maxstable.kernel_s": ("s", "engine"),
    "maxstable.export_s": ("s", "maxstable.export_s"),
    "smallball.factorised_s": ("s", "smallball"), "smallball.joint_s": ("s", "smallball"),
    "bounds.bound_s": ("s", "bounds.bound_s"),
    "cli.other_s": ("s", None),
}


def sampler_branch(model) -> str:
    """Sampler branch the models layer takes, classified from the model alone."""
    if hasattr(model, "jump_rate"):
        return "levy"
    if getattr(model, "parametric", False) and getattr(model, "alpha", None) == 2.0:
        return "line"
    if getattr(model, "parametric", False) and getattr(model, "alpha", None) == 1.0:
        return "iid"
    return "embedding"


def _optional_module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Records spans around the wrapped entry points of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._map_parent = None  # map span whose chunks run on worker threads

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, **attrs) -> dict:
        stack = self._stack()
        parent = stack[-1]["id"] if stack else self._map_parent
        with self._lock:
            span = {"id": len(self.spans), "name": name, "layer": layer, "parent": parent,
                    "thread": threading.get_ident(), "start": time.perf_counter(), "end": None,
                    **attrs}
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        span = self._open(name, layer, **attrs)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping ------------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        if module is None:
            return
        original = getattr(module, attr, None)
        if not callable(original):
            return
        setattr(module, attr, make(original))
        self.wrapped.add(f"{module.__name__}.{attr}")

    def _entry(self, name: str, layer: str, describe=None, inspect=None):
        """Wrapper factory: one span per call, attributes from the arguments."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    attrs = describe(*args, **kwargs) if describe else {}
                except (TypeError, AttributeError, ValueError):
                    attrs = {}  # changed signature: the metrics needing these attributes go absent
                span = tracer._open(name, layer, **attrs)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if inspect:
                    span.update(inspect(result))
                return result
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every layer's entry points where the CLI and the layers bind them."""
        cli, engine, estimators, maxstable = (
            _optional_module(f"pickands.{name}") for name in ("cli", "engine", "estimators", "maxstable"))

        def describe_sample(model, grid, rng, n, *args, **kwargs):
            return {"branch": sampler_branch(model), "paths": int(n),
                    "points": int(n) * int(grid.n_points)}

        sample = self._entry("models.sample", "models", describe_sample)
        for module in (estimators, maxstable):
            self._patch(module, "w_matrix", sample)

        self._patch(engine, "map_chunks", self._wrap_map)
        self._patch(engine, "chunk_stream", self._entry("engine.stream", "engine"))
        self._patch(engine, "reduce_moments", self._entry("engine.reduce", "engine"))

        for fn in ESTIMATOR_ENTRIES:
            self._patch(cli, fn, self._entry(f"estimators.{fn}", "estimators"))

        def describe_batch(model, grid, rng, count, *args, **kwargs):
            return {"samples": int(count)}

        def inspect_batch(result):
            try:
                return {"capped": int(result[2].sum())}
            except (TypeError, IndexError, AttributeError):
                return {}

        batch = self._entry("maxstable.max_stable_batch", "maxstable", describe_batch, inspect_batch)
        self._patch(cli, "max_stable_batch", batch)
        self._patch(maxstable, "max_stable_batch", batch)
        for fn in MAXSTABLE_ENTRIES:
            if fn != "max_stable_batch":
                self._patch(cli, fn, self._entry(f"maxstable.{fn}", "maxstable"))
        self._patch(cli, "_export_samples", self._entry("maxstable.export", "maxstable"))

        def describe_smallball(alpha, *args, factorize=None, **kwargs):
            factorised = alpha == 1.0 if factorize is None else bool(factorize)
            return {"factorised": factorised}

        self._patch(cli, "est_smallball_prob",
                    self._entry("smallball.est_smallball_prob", "smallball", describe_smallball))
        self._patch(cli, "smallball_extrapolate",
                    self._entry("smallball.smallball_extrapolate", "smallball"))
        for fn in BOUND_ENTRIES:
            self._patch(cli, fn, self._entry(f"bounds.{fn}", "bounds"))

        # The method table of `estimate` holds its own references.
        table = getattr(cli, "ESTIMATORS", None)
        if isinstance(table, dict):
            for method, fn in list(table.items()):
                name = getattr(fn, "__name__", method)
                layer = "maxstable" if name in MAXSTABLE_ENTRIES else "estimators"
                table[method] = self._entry(f"{layer}.{name}", layer)(fn)

    def _wrap_map(self, map_chunks):
        """map_chunks wrapper that also wraps the worker, one span per chunk."""
        tracer = self

        @functools.wraps(map_chunks)
        def wrapper(worker, *args, **kwargs):
            owner = getattr(worker, "__module__", "") or ""
            owner = owner.rsplit(".", 1)[-1]
            with tracer.span("engine.map", "engine") as span:

                def chunk(*wargs, **wkwargs):
                    with tracer.span("engine.chunk", "engine", owner=owner):
                        return worker(*wargs, **wkwargs)

                tracer._map_parent = span["id"]
                try:
                    return map_chunks(chunk, *args, **kwargs)
                finally:
                    tracer._map_parent = None
        return wrapper

    def export(self) -> dict:
        return {"wrapped": sorted(self.wrapped), "spans": self.spans}


# --- analysis ---------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(s["id"], []))
            for s in spans}


def _ancestor(spans_by_id: dict, span: dict, name: str) -> dict | None:
    parent = span["parent"]
    while parent is not None:
        p = spans_by_id[parent]
        if p["name"] == name:
            return p
        parent = p["parent"]
    return None


def layer_metrics(trace: dict, invocation: str | None = None) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced child run, and the names reported absent.

    With ``invocation`` set, only the spans of that CLI invocation count.
    """
    spans = [s for s in trace["spans"] if s["end"] is not None]
    by_id = {s["id"]: s for s in spans}
    if invocation is not None:
        spans = [s for s in spans
                 if (s if s["name"] == "cli.invocation" else _ancestor(by_id, s, "cli.invocation") or {})
                 .get("invocation") == invocation]
    wrapped = set(trace["wrapped"])
    own = self_times(spans)

    def named(name, **match):
        return [s for s in spans if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    def total(name, **match):
        return sum(s["end"] - s["start"] for s in named(name, **match))

    def attr_sum(group, key):
        """Sum of an attribute, or None when a span lacks it."""
        values = [s.get(key) for s in group]
        return None if None in values else sum(values)

    samples = named("models.sample")
    described = all("branch" in s for s in samples)
    sample_s = total("models.sample")
    points = attr_sum(samples, "points")
    chunks = named("engine.chunk")
    maps = named("engine.map")
    map_s = total("engine.map")
    busy_s = total("engine.chunk")
    chunk_intervals: dict[int, list] = {}
    threads: dict[int, set] = {}
    for c in chunks:
        chunk_intervals.setdefault(c["parent"], []).append((c["start"], c["end"]))
        threads.setdefault(c["parent"], set()).add(c["thread"])
    n_threads = max((len(t) for t in threads.values()), default=1)
    batches = [s for s in named("maxstable.max_stable_batch")
               if _ancestor(by_id, s, "maxstable.max_stable_batch") is None]
    n_samples = attr_sum(batches, "samples")
    capped = attr_sum(batches, "capped")
    batch_paths = attr_sum([s for s in samples if _ancestor(by_id, s, "maxstable.max_stable_batch")],
                           "paths")
    smallball = named("smallball.est_smallball_prob")

    def ratio(a, b):
        """a / b, or None (absent) when either is unknown or nothing was counted in b."""
        return None if a is None or not b else a / b

    metrics = {
        "models.sample_s": sample_s,
        "models.points": points,
        "models.points_per_s": ratio(points, sample_s),
        "models.calls": len(samples),
        "models.embedding_s": total("models.sample", branch="embedding") if described else None,
        "models.iid_s": total("models.sample", branch="iid") if described else None,
        "models.line_s": total("models.sample", branch="line") if described else None,
        "models.levy_s": total("models.sample", branch="levy") if described else None,
        "estimators.kernel_s": sum(own[c["id"]] for c in chunks if c["owner"] == "estimators"),
        "engine.chunks": len(chunks),
        "engine.threads": n_threads,
        "engine.map_s": map_s,
        "engine.busy_s": busy_s,
        "engine.utilisation": ratio(busy_s, map_s * n_threads),
        "engine.overhead_s": sum(m["end"] - m["start"]
                                 - _covered(m["start"], m["end"], chunk_intervals.get(m["id"], []))
                                 for m in maps),
        "engine.reduce_s": total("engine.reduce"),
        "maxstable.batch_s": sum(s["end"] - s["start"] for s in batches),
        "maxstable.paths_per_sample": ratio(batch_paths, n_samples),
        "maxstable.capped_share": ratio(capped, n_samples),
        "maxstable.kernel_s": sum(own[c["id"]] for c in chunks if c["owner"] == "maxstable"),
        "maxstable.export_s": total("maxstable.export"),
        "smallball.factorised_s": total("smallball.est_smallball_prob", factorised=True),
        "smallball.joint_s": total("smallball.est_smallball_prob", factorised=False),
        "bounds.bound_s": sum(total(f"bounds.{f}") for f in BOUND_ENTRIES),
        "cli.other_s": sum(own[s["id"]] for s in named("cli.invocation")),
    }
    if any("factorised" not in s for s in smallball):
        metrics["smallball.factorised_s"] = metrics["smallball.joint_s"] = None
    absent = {name for name, value in metrics.items() if value is None}
    for name, (_, needs) in METRICS.items():
        if needs is not None and not wrapped.intersection(METRIC_TARGETS[needs]):
            absent.add(name)
    if not wrapped.intersection(METRIC_TARGETS["models"]):
        # kernel time is chunk time minus the sampler time inside it, and the
        # paths per sample are counted at the sampler
        absent |= {"estimators.kernel_s", "maxstable.kernel_s", "maxstable.paths_per_sample"}
    return {k: v for k, v in metrics.items() if k not in absent}, sorted(absent)
