"""Span tracer that wraps mdpgeom's public functions from outside the package.

Modules of the package import each other's functions by name
(``from .chains import classify_chain``), so one function has a binding in
its own module and one in every module that imports it. ``Tracer.install``
replaces every such binding with one shared wrapper and ``uninstall`` puts
the originals back. The layer of a span is the module that defines the
function, whichever binding the caller went through.

Each wrapper records a span (function, start, end, parent span, instance)
into an in-memory list; nothing is written until ``write_spans``. Spans of
a generator function cover each resumption, so lazy iteration is charged to
the generator's module and not to the consumer. An instance opens at every
``generate.generate_model`` call: one sweep trial, or one generate/converge
pair, since ``converge`` generates nothing.

Computed counts come from argument shapes and return values (``DERIVERS``);
they are arithmetic on sizes, not measurements of memory traffic.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from collections import defaultdict

PACKAGE = "mdpgeom"
INSTANCE_MARKER = "generate.generate_model"

# (name, unit, better) of every per-layer metric, in report order. The
# comment above each layer says which end-to-end metric it should move and on
# which workload, and where it should not move.
LAYER_METRICS = [
    # sweep row formatting and writing: instances_per_s on sweep-disc, not pipeline-large
    ("cli.self_s", "s", "lower"),
    # instances_per_s on pipeline-large and sweep-disc, not sweep-avg
    ("generate.generate_model.calls", "count", "lower"),
    ("generate.self_s", "s", "lower"),
    ("generate.draws_computed", "count", "lower"),
    # instances_per_s and peak_rss_mb on pipeline-large, not the sweeps
    ("modelfile.emit_model.self_s", "s", "lower"),
    ("modelfile.parse_model.self_s", "s", "lower"),
    ("modelfile.bytes", "B", "lower"),
    # instances_per_s on sweep-avg, not pipeline-large
    ("classic.optimal_policy.calls", "count", "lower"),
    ("classic.optimal_policy.total_s", "s", "lower"),
    ("classic.self_s", "s", "lower"),
    ("classic.evaluate_average.calls", "count", "lower"),
    ("classic.evaluate_discounted.calls", "count", "lower"),
    # instances_per_s: classification on sweep-avg, primitivity on sweep-disc and pipeline-large
    ("chains.classify_chain.calls", "count", "lower"),
    ("chains.classify_chain.self_s", "s", "lower"),
    ("chains.primitivity_certificate.calls", "count", "lower"),
    ("chains.primitivity_certificate.self_s", "s", "lower"),
    ("chains.power_products", "count", "lower"),
    # instances_per_s on sweep-avg (per call, tiny LUs), not pipeline-large (flops)
    ("linalg.solve_checked.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("linalg.lu_flops_computed", "flop", "lower"),
    # instances_per_s on sweep-disc and pipeline-large
    ("geometry.evaluate_policy.calls", "count", "lower"),
    ("geometry.normalize_rewards.calls", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    # instances_per_s on sweep-disc (per call) and pipeline-large (flops); little on sweep-avg
    ("kernels.greedy_sweep_model.calls", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.flops_computed", "flop", "lower"),
    ("kernels.bytes_computed", "B", "lower"),
    # instances_per_s on sweep-disc
    ("convergence.verify_contraction.calls", "count", "lower"),
    ("convergence.verify_contraction.p50_s", "s", "lower"),
    ("convergence.verify_contraction.p90_s", "s", "lower"),
    ("convergence.run_vi.calls", "count", "lower"),
    ("convergence.self_s", "s", "lower"),
    ("convergence.counted_ratio", "ratio", "higher"),
    # instances_per_s on pipeline-large, not the sweeps
    ("reporting.policy_hash.calls", "count", "lower"),
    ("reporting.self_s", "s", "lower"),
    # instances_per_s on sweep-avg
    ("model.check_policy.calls", "count", "lower"),
    ("model.policy_kernel.calls", "count", "lower"),
    ("model.self_s", "s", "lower"),
    # the benchmark's own: traced over untraced wall, and traced wall under some span
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

COUNTERS = (
    "generate.draws_computed",
    "modelfile.bytes",
    "chains.power_products",
    "linalg.lu_flops_times_3",
    "kernels.flops_computed",
    "kernels.bytes_computed",
    "convergence.counted",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _draws(counters, args, kwargs, result, exc):
    # documented draw order per SAP: n weights, n sparsity draws when
    # sparsity > 0, one reward
    spec = _arg(args, kwargs, 0, "spec")
    per_sap = spec.n * (2 if spec.sparsity > 0.0 else 1) + 1
    counters["generate.draws_computed"] += spec.n * spec.saps_per_state * per_sap


def _emitted_bytes(counters, args, kwargs, result, exc):
    if exc is None:
        counters["modelfile.bytes"] += len(result.encode())


def _parsed_bytes(counters, args, kwargs, result, exc):
    counters["modelfile.bytes"] += len(_arg(args, kwargs, 0, "text").encode())


def _power_products(counters, args, kwargs, result, exc):
    # the search multiplies once per exponent it rejects; without a positive
    # power it runs to the Wielandt bound n^2 - 2n + 2
    if exc is None:
        counters["chains.power_products"] += result.exponent - 1
    elif type(exc).__name__ == "NotPrimitiveError":
        n = len(_arg(args, kwargs, 0, "p"))
        counters["chains.power_products"] += n * n - 2 * n + 2


def _lu_flops(counters, args, kwargs, result, exc):
    # 2n^3/3 per factorization, summed as integers so the total repeats exactly
    n = len(_arg(args, kwargs, 0, "a"))
    counters["linalg.lu_flops_times_3"] += 2 * n**3


def _sweep_traffic(counters, args, kwargs, result, exc):
    model = _arg(args, kwargs, 0, "model")
    m, n = model.m, model.n
    counters["kernels.flops_computed"] += 2 * m * n
    counters["kernels.bytes_computed"] += 8 * (m * n + m + n)


def _counted(counters, args, kwargs, result, exc):
    if exc is None and result.diagnostics is not None and result.diagnostics.all_pass:
        counters["convergence.counted"] += 1


DERIVERS = {
    "generate.generate_model": _draws,
    "modelfile.emit_model": _emitted_bytes,
    "modelfile.parse_model": _parsed_bytes,
    "chains.primitivity_certificate": _power_products,
    "linalg.solve_checked": _lu_flops,
    "linalg.pivot_magnitudes": _lu_flops,
    "kernels.greedy_sweep_model": _sweep_traffic,
    "convergence.verify_contraction": _counted,
}


def discover_bindings() -> list:
    """(module, attribute, function) for every public package function bound in a package module.

    A function is public when neither its own name nor the binding name
    starts with an underscore. A re-imported function appears once per
    module that binds it.
    """
    found = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, obj in sorted(vars(module).items()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith(PACKAGE + ".")
                and not attr.startswith("_")
                and not obj.__name__.startswith("_")
            ):
                found.append((module, attr, obj))
    return found


def qualified_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records one span per call into the package's public functions.

    A span is the tuple (name id, start, end, parent span index or -1,
    instance id); ``names[name id]`` is ``layer.function``.
    """

    def __init__(self):
        self.spans = []
        self.names = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.instance = 0
        self._stack = []
        self._patched = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attr, fn in discover_bindings():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            setattr(module, attr, wrappers[fn])
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn):
        name = qualified_name(fn)
        name_id = len(self.names)
        self.names.append(name)
        derive = DERIVERS.get(name)
        opens_instance = name == INSTANCE_MARKER
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx] = (name_id, start, clock(), parent, tracer.instance)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens_instance:
                tracer.instance += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.instance)
                if derive is not None:
                    derive(counters, args, kwargs, result, exc)

        return wrapper

    def write_spans(self, path, origin: float) -> None:
        """Write spans as CSV: index, name, start, end (seconds after ``origin``), parent, instance."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,instance\n")
            for i, (nid, start, end, parent, inst) in enumerate(self.spans):
                fh.write(
                    f"{i},{self.names[nid]},{start - origin:.9f},{end - origin:.9f},{parent},{inst}\n"
                )


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals``, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (end - start) - union_length(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer, origin: float, traced_wall: float, untraced_wall: float) -> dict:
    """Every metric of LAYER_METRICS from one traced batch that started at ``origin``.

    Raises KeyError when a named function was not found in the package, so
    that a renamed function fails loudly instead of reading as zero.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    stats = {}
    for name in tracer.names:
        layer = name.split(".", 1)[0]
        stats.setdefault(f"{layer}.self_s", 0.0)
        stats[f"{name}.calls"] = 0
        for suffix in ("self_s", "total_s", "p50_s", "p90_s"):
            stats[f"{name}.{suffix}"] = 0.0
    durations = defaultdict(list)
    for (nid, start, end, parent, _), self_s in zip(spans, selfs):
        name = tracer.names[nid]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += self_s
        stats[f"{name.split('.', 1)[0]}.self_s"] += self_s
        durations[name].append(end - start)
        # total time counts a span only when no ancestor has the same name
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != nid:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            stats[f"{name}.total_s"] += end - start
    for name, values in durations.items():
        values.sort()
        stats[f"{name}.p50_s"] = _percentile(values, 0.5)
        stats[f"{name}.p90_s"] = _percentile(values, 0.9)
    stats.update(tracer.counters)
    stats["linalg.lu_flops_computed"] = stats["linalg.lu_flops_times_3"] / 3
    calls = stats["convergence.verify_contraction.calls"]
    stats["convergence.counted_ratio"] = stats["convergence.counted"] / calls if calls else 0.0
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    stats["trace.coverage"] = union_length(roots, origin, origin + traced_wall) / traced_wall
    stats["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {name: stats[name] for name, _, _ in LAYER_METRICS}
