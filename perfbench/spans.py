"""Span recorder for the traced run.

`SpanRecorder.install` replaces each traced public function, in every
metrocommute module that holds a reference to it, by a wrapper that records
one span per call: its duration, and its self time (duration minus the
durations of the traced spans it caused). Spans stay in memory as per-function
totals and are written out once, after the run. `uninstall` puts every
original back. Untraced runs never construct a recorder, so nothing is
wrapped there.

Spans are wall-clock intervals per thread. The first span a pool thread opens
(under `sweep --jobs 2`) counts as a child of the span the main thread has
open, and the union of such intervals is taken off that span's self time. The
two pool threads share the interpreter lock, so their spans include time spent
waiting for it and layer self times can add up to more than the traced wall
time.
"""

import functools
import importlib
import sys
import threading
import time

PACKAGE = "metrocommute"

# layer (package module) -> traced public functions. `examples` is reached only
# through descriptors.resolve; `operator_core` holds primitives too small to
# time on their own.
LAYERS = {
    "cli": ("main",),
    "descriptors": ("parse_descriptor", "resolve", "with_parameter"),
    "states": ("density_matrix", "density_from_eigpairs"),
    "encoding": ("hamiltonian_set", "encode"),
    "sld": ("sld_rotated",),
    "conditions": (
        "classify",
        "weak_direct",
        "weak_integral",
        "weak_decomposed",
        "weak_series_truncation",
        "weak_rank_two",
        "rank_two_ss_prime",
        "rank_two_ks",
        "condition_operators_direct",
        "support_kernel_decomposition",
        "pc_trace_norm",
    ),
    "metrology": ("qfim", "incompatibility", "qcr_scalar"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
MARK = "__perfbench_span__"


def per_layer_metric_names():
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls_per_op", f"{fn}.self_ms_per_op"]
    names += [f"{layer}.self_share" for layer in LAYERS]
    names.append("metrology.incompatibility.singular_per_op")
    return names


def package_attributes():
    """(module, attribute, value) for every global of every loaded metrocommute module."""
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            for attr, value in list(vars(mod).items()):
                yield mod, attr, value


def wrapped_attributes():
    """(module name, attribute) pairs in metrocommute that hold a span wrapper."""
    return [
        (mod.__name__, attr)
        for mod, attr, value in package_attributes()
        if callable(value) and hasattr(value, MARK)
    ]


def covered_ns(intervals, start, end):
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanRecorder:
    def __init__(self):
        # name -> [calls, total_ns, self_ns, raised]
        self.stats = {name: [0, 0, 0, 0] for name in FUNCTIONS}
        # tag -> name -> list of span durations (ns), for tagged requests only
        self.tagged = {}
        self.enabled = True
        self.tag = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._main_stack = None

    def install(self):
        """Wrap every traced function; the calling thread is the main thread."""
        self._main_stack = self._local.stack = []
        originals = {}
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for fn in fns:
                original = getattr(mod, fn)
                originals[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))
        for mod, attr, value in list(package_attributes()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        local = self._local
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = None
            if not stack and self._main_stack:
                # first span of a pool thread: a child of the main thread's open span
                parent = self._main_stack[-1]
            frame = [0, []]  # same-thread child ns, other-thread child intervals
            stack.append(frame)
            raised = 0
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = perf()
                duration = end - start
                stack.pop()
                children = frame[0] + covered_ns(frame[1], start, end)
                if stack:
                    stack[-1][0] += duration
                elif parent is not None:
                    with self._lock:
                        parent[1].append((start, end))
                self._record(name, duration, duration - children, raised)

        setattr(span, MARK, name)
        return span

    def _record(self, name, duration, self_ns, raised):
        with self._lock:
            st = self.stats[name]
            st[0] += 1
            st[1] += duration
            st[2] += self_ns
            st[3] += raised
            if self.tag is not None:
                self.tagged.setdefault(self.tag, {}).setdefault(name, []).append(duration)

    def metrics(self, ops, traced_ns):
        """Per-layer metrics for `ops` attempted ops over `traced_ns` of request time."""
        out = {}
        for name, (calls, _, self_ns, _) in self.stats.items():
            out[f"{name}.calls_per_op"] = (calls / ops, "1/op")
            out[f"{name}.self_ms_per_op"] = (self_ns / 1e6 / ops, "ms/op")
        for layer in LAYERS:
            self_ns = sum(st[2] for name, st in self.stats.items() if name.startswith(layer + "."))
            out[f"{layer}.self_share"] = (self_ns / traced_ns, "ratio")
        out["metrology.incompatibility.singular_per_op"] = (
            self.stats["metrology.incompatibility"][3] / ops,
            "1/op",
        )
        return out

    def dump(self):
        """JSON-ready record of every span total and the tagged span durations."""
        return {
            "functions": {
                name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6, "raised": r}
                for name, (c, t, s, r) in self.stats.items()
            },
            "tagged_ms": {
                tag: {name: [d / 1e6 for d in durations] for name, durations in by_name.items()}
                for tag, by_name in self.tagged.items()
            },
        }
