"""Span tracer that instruments the package under test from outside.

Installed before the package is imported, it wraps each module's import and,
right after the module body has run, rebinds every public function and every
public method of the module's classes with a span-recording wrapper. Modules
import their dependencies after those were instrumented, so the rebinding
reaches every module that imports a name, and calls inside a module go
through the rebound global. Callbacks a module hands to another (the chunk
functions ``model_check`` passes to ``sampling.chunked_monte_carlo``) call
``model_check``'s own rebound names, so their work is charged to
``model_check``, not to the layer that invoked them.

A span is (name, layer, start, end, parent index). Spans stay in memory and
are written out once, at the end. Single-threaded use only (``--workers 1``).
"""

import functools
import importlib.abc
import importlib.machinery
import inspect
import time

PACKAGE = "conmult"
LAYERS = ("cli", "core", "sampling", "model_check", "prior_check",
          "elicitation", "posterior", "consistency")
IMPORT = "<import>"


def layer_of(module_name):
    """Layer of a package module; the package ``__init__`` belongs to ``cli``."""
    leaf = module_name.rpartition(".")[2]
    return leaf if leaf in LAYERS else "cli"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, layer, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)

        return traced

    def instrument(self, module):
        layer = layer_of(module.__name__)
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(module, name, self.wrap(obj, layer, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        setattr(obj, attr, self.wrap(member, layer, f"{layer}.{name}.{attr}"))

    def install(self, meta_path):
        meta_path.insert(0, _ImportHook(self))

    def layer_totals(self):
        """Per-layer self seconds and call counts, and the seconds covered by root spans.

        A span's self time is its duration minus its direct children's. Import
        spans add to self time but not to calls.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        covered = 0.0
        for (name, layer, start, end, parent), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
            calls[layer] += not name.endswith(IMPORT)
            if parent < 0:
                covered += end - start
        return self_s, calls, covered

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,layer,start,end,parent\n")
            for name, layer, start, end, parent in self.spans:
                fh.write(f"{name},{layer},{start!r},{end!r},{parent}\n")


class _ImportHook(importlib.abc.MetaPathFinder):
    """Finds the package's modules as usual, then traces and instruments their loading."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        layer = layer_of(fullname)
        exec_module = self.tracer.wrap(spec.loader.exec_module, layer,
                                       f"{layer}.{IMPORT}")

        def exec_and_instrument(module):
            exec_module(module)
            self.tracer.instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec
