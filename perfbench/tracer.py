"""Span tracer that wraps tameapprox's public functions from outside the package.

Each wrapped function is a span. Per span name the tracer keeps `calls`,
`total_s` (CPU time of the process inside the span, like the benchmark's op
times) and `self_s` (that time minus the time of the wrapped functions it
called), plus a few work counts computed from the
arguments or the result. Everything is kept in memory and read at the end.
"""

import importlib
import sys
import time

PACKAGE = "tameapprox"

# (module, attribute path) of every traced function. A span is named
# "<module>.<path>" with the dunder methods shortened to "init" and "matmul".
TARGETS = (
    ("zmod_linalg", "smith_decomposition"),
    ("zmod_linalg", "kernel_mod"),
    ("zmod_linalg", "IntMatrix.__matmul__"),
    ("zmod_linalg", "QuotientPresentation.__init__"),
    ("zmod_linalg", "QuotientPresentation.coordinates"),
    ("cohomology", "coboundary0_matrix"),
    ("cohomology", "coboundary1_matrix"),
    ("cohomology", "is_cocycle"),
    ("cohomology", "h1"),
    ("cohomology", "res_h1"),
    ("g_modules", "GModule.__init__"),
    ("g_modules", "augmentation_ideal"),
    ("g_modules", "restrict"),
    ("finite_groups", "Group.__init__"),
    ("finite_groups", "Subgroup.as_group"),
    ("arithmetic", "is_prime"),
    ("arithmetic", "factorize"),
    ("arithmetic", "find_q"),
    ("arithmetic", "ellth_root_in_zell"),
    ("arithmetic", "biquadratic_place_records"),
    ("arithmetic", "certify"),
    ("cli", "main"),
)


def span_name(module, path):
    return f"{module}.{path}".replace("__init__", "init").replace("__matmul__", "matmul")


def _smith_counts(tracer, stat, parent, args, result):
    mat = args[0]
    stat["entries"] = stat.get("entries", 0) + mat.rows * mat.cols
    if result.v is not None:
        bits = max((abs(x).bit_length() for x in result.v.entries), default=0)
        stat["max_v_bits"] = max(stat.get("max_v_bits", 0), bits)


def _matmul_counts(tracer, stat, parent, args, result):
    if result is not NotImplemented:
        a, b = args
        stat["madds"] = stat.get("madds", 0) + a.rows * a.cols * b.cols


def _coboundary1_counts(tracer, stat, parent, args, result):
    stat["rows"] = stat.get("rows", 0) + result.rows
    if parent == "cohomology.h1":
        tracer.count("cohomology.h1", "misses")


def _gmodule_counts(tracer, stat, parent, args, result):
    if parent == "g_modules.restrict":
        tracer.count("g_modules.restrict", "misses")


# Work counts, keyed by span name; each runs after the span has closed, and
# its own time is charged to no span.
COUNTERS = {
    "zmod_linalg.smith_decomposition": _smith_counts,
    "zmod_linalg.IntMatrix.matmul": _matmul_counts,
    "cohomology.coboundary1_matrix": _coboundary1_counts,
    "g_modules.GModule.init": _gmodule_counts,
}

# Cache hit ratios: 1 - misses / calls, where a miss is a build that the
# cache should have saved (a coboundary matrix built inside h1, a module
# built inside restrict).
HIT_RATIOS = ("cohomology.h1", "g_modules.restrict")


class Tracer:
    """Wraps callables as spans and aggregates their statistics by name."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.stats = {}
        self._stack = []
        self._undo = []

    def count(self, name, key, amount=1):
        stat = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stat[key] = stat.get(key, 0) + amount

    def wrap(self, name, fn, counter=None):
        """Return `fn` wrapped as the span `name`."""
        stat = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stack = self._stack
        clock = self.clock

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, time spent in child spans]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if counter is not None:
                counter(self, stat, parent and parent[0], args, result)
                if parent is not None:
                    # The counter's own time is kept out of the parent's self time.
                    parent[1] += clock() - start - elapsed
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self):
        """Wrap every target at every tameapprox module that binds its name."""
        for module, path in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            name = span_name(module, path)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(mod, owner_path)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self.wrap(name, original, COUNTERS.get(name)))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, COUNTERS.get(name))
            for loaded in list(sys.modules.values()):
                mod_name = getattr(loaded, "__name__", "")
                if (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")) \
                        and loaded.__dict__.get(attr) is original:
                    self._rebind(loaded, attr, wrapped)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def scale_times(stats, scale):
    """Multiply every time in span statistics by `scale`."""
    for stat in stats.values():
        for key in stat:
            if key.endswith("_s"):
                stat[key] *= scale


def merge(total, stats):
    """Add one tracer's statistics into `total` (counts and times add, maxima max)."""
    for name, stat in stats.items():
        into = total.setdefault(name, {})
        for key, value in stat.items():
            if key.startswith("max_"):
                into[key] = max(into.get(key, 0), value)
            else:
                into[key] = into.get(key, 0) + value
    return total


def layer_values(stats):
    """Flatten span statistics to {"<span>.<stat>": value}, adding hit ratios."""
    values = {}
    for module, path in TARGETS:
        name = span_name(module, path)
        for key, value in stats.get(name, {}).items():
            values[f"{name}.{key}"] = value
    for name in HIT_RATIOS:
        stat = stats.get(name, {})
        calls = stat.get("calls", 0)
        misses = stat.get("misses", 0)
        values[f"{name}.misses"] = misses
        values[f"{name}.hit_ratio"] = 1 - misses / calls if calls else 0.0
    return values
