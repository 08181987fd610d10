"""Per-layer spans recorded from the benchmark's side of each layer boundary.

``Tracer.install`` replaces the public functions of each ``mdtds`` module
(and every other module's binding of the same function object, so
``engine.ball_enumerate`` or ``bank.subgroup_ball`` are covered too) with
wrappers that record spans; ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes.

A span records its id, its name (which starts with its layer, as in
``words.ball_enumerate``), start, end, parent span and request number, plus
its busy time; the spans file holds one ``[id, name, start, end, parent,
request]`` list per line.  A call made while a span of the same layer is open records no span of
its own, so a layer's internal calls cost one check and self times still add
up.  Generators (``ball_enumerate``) are timed only inside ``next()``; the
consumer's work between items belongs to the consumer.  Methods such as
``member`` and ``apply`` run once per word and are not wrapped: their time
belongs to the layer that calls them.  Spans live in memory until ``write``
at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import oracles as orc

LAYER_MODULES = {
    "words": ("words",),
    "subgroups": ("subgroups",),
    "engine": ("engine",),
    "cesaro": ("cesaro",),
    "kernels": ("_kernels", "_kernel_py", "_kernel_cy"),
    "bank": ("bank",),
    "circle": ("circle",),
    "repro": ("repro",),
    "cli": ("cli",),
}

# Methods that are layer entry points but not module-level functions.
METHODS = (("bank", "BankFamily", "exact_sphere_sums"),
           ("circle", "CircleFamily", "exact_sphere_sums"))

WALKS = ("subtree_scan_mult", "subtree_scan_addmod", "subtree_scan_object")

# Arithmetic helpers called once per tree node from inside a walk; a span
# each would cost more than the work, so their time stays with the caller.
UNTRACED = {"circle.mod1"}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "request",
                 "busy", "generator", "walk", "worker")

    def __init__(self, sid, name, layer, parent, request, generator=False, walk=False,
                 worker=False):
        self.id, self.name, self.layer = sid, name, layer
        self.parent, self.request, self.worker = parent, request, worker
        self.start = self.end = perf_counter()
        self.busy = 0.0
        self.generator, self.walk = generator, walk

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.request]


class Tracer:
    def __init__(self, package):
        self.m = package
        self.spans: list = []
        self._ids = itertools.count()
        self.request = -1  # numbers the traced requests in the order sent
        self.enabled = False
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_top = None
        self._patches: list = []
        self._families: dict = {}
        self.counts = defaultdict(float)

    # -- span bookkeeping ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1].id
        # a worker thread started by a scan: its parent is the main thread's span
        return None if threading.get_ident() == self._main else self._main_top

    def _push(self, stack, span):
        stack.append(span)
        if threading.get_ident() == self._main:
            self._main_top = span.id

    def _pop(self, stack):
        stack.pop()
        if threading.get_ident() == self._main:
            self._main_top = stack[-1].id if stack else None

    def _new_span(self, stack, name, layer, **kw) -> Span:
        span = Span(next(self._ids), name, layer, self._parent(stack), self.request,
                    worker=threading.get_ident() != self._main, **kw)
        self.spans.append(span)
        return span

    def _note_family(self, args):
        if args and isinstance(args[0], self.m.MapFamily):
            fam = args[0]
            if id(fam) not in self._families:
                self._families[id(fam)] = (fam, fam.apply_calls)

    # -- wrappers -------------------------------------------------------------------

    def _wrap_function(self, fn, name, layer, after=None, walk=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1].layer == layer and not walk:
                return fn(*args, **kwargs)
            tracer._note_family(args)
            before = args[0].apply_calls if name.endswith("orbit_ball") else None
            span = tracer._new_span(stack, name, layer, walk=walk)
            tracer._push(stack, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.busy = span.end - span.start
                tracer._pop(stack)
            if after is not None:
                after(tracer, args, kwargs, result, before)
            return result
        return wrapper

    def _wrap_generator(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not tracer.enabled or (stack and stack[-1].layer == layer):
                yield from fn(*args, **kwargs)
                return
            gen = fn(*args, **kwargs)
            span = tracer._new_span(stack, name, layer, generator=True)
            items = 0
            try:
                while True:
                    t0 = perf_counter()
                    tracer._push(stack, span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        tracer._pop(stack)
                        span.busy += perf_counter() - t0
                    items += 1
                    yield item
            finally:
                span.end = perf_counter()
                gen.close()
                tracer.counts[name + ".items"] += items
                tracer.counts[name + ".busy"] += span.busy
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer's public functions and all bindings of them."""
        pkg = self.m
        modules = {}
        for layer, names in LAYER_MODULES.items():
            for short in names:
                try:
                    modules[short] = (layer, importlib.import_module(f"{pkg.__name__}.{short}"))
                except ImportError:
                    continue  # the compiled kernel is optional
        active_walk = pkg._kernels._impl
        wrappers = {}
        for short, (layer, mod) in modules.items():
            if mod.__name__.startswith(f"{pkg.__name__}._kernel_") and mod is not active_walk:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                if inspect.isgeneratorfunction(fn):
                    new = self._wrap_generator(fn, name, layer)
                else:
                    new = self._wrap_function(fn, name, layer, after=AFTER.get(attr),
                                              walk=attr in WALKS)
                wrappers[id(fn)] = new
                self._patch(mod, attr, new)
        # other modules that imported a wrapped function by name
        bindings = [pkg] + [mod for _, mod in modules.values()]
        for mod in bindings:
            for attr, value in list(vars(mod).items()):
                new = wrappers.get(id(value))
                if new is not None and getattr(mod, attr) is not new:
                    self._patch(mod, attr, new)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer][1], cls_name)
            self._patch(cls, attr, self._wrap_function(
                getattr(cls, attr), f"{layer}.{cls_name}.{attr}", layer))

    def uninstall(self) -> None:
        """Put the originals back and bank the map applications made meanwhile."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.counts["engine.apply_calls"] += sum(
            fam.apply_calls - start for fam, start in self._families.values())
        self._families.clear()

    # -- results --------------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer: busy time minus the time child spans cover.

        Spans that ran side by side in worker threads (a scan with
        ``threads=2``) share the interpreter lock, so together they count
        for the union of their intervals, not the sum.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = defaultdict(float)
        workers = defaultdict(list)
        for span in self.spans:
            covered = 0.0
            intervals = []
            for child in children.get(span.id, ()):
                if child.generator:
                    covered += child.busy
                else:
                    intervals.append((max(child.start, span.start), min(child.end, span.end)))
            covered += union_length(intervals)
            if span.worker:
                workers[(span.parent, span.layer)].append((span.start, span.end, covered))
            else:
                out[span.layer] += span.busy - covered
        for (_, layer), group in workers.items():
            out[layer] += (union_length([(a, b) for a, b, _ in group])
                           - sum(c for _, _, c in group))
        return out

    def busy(self, name: str) -> float:
        return sum((s.busy for s in self.spans if s.name == name), 0.0)

    def walk_seconds(self) -> float:
        """Wall time during which at least one subtree walk was running."""
        return union_length([(s.start, s.end) for s in self.spans if s.walk])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_list()) + "\n")


def union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


# -- counters recorded after a call, at the boundary where the work happens -------


def _after_scan(tracer, args, kwargs, result, before):
    n_gens, n_max = args[0], args[1]
    tracer.counts["kernels.nodes"] += orc.ball_count(n_max, n_gens) - 1


def _after_subgroup_ball(tracer, args, kwargs, result, before):
    spec, radius = args[0], args[1]
    tracer.counts["subgroups.members"] += len(result)
    tracer.counts["subgroups.tested"] += orc.ball_count(radius, spec.n_gens)


def _after_orbit_ball(tracer, args, kwargs, result, before):
    family, radius = args[0], args[2]
    tracer.counts["engine.orbit_applies"] += family.apply_calls - before
    tracer.counts["engine.orbit_edges"] += orc.ball_count(radius, family.n_gens) - 1


AFTER = {"scan_mult": _after_scan, "scan_addmod": _after_scan,
         "scan_object": _after_scan, "subgroup_ball": _after_subgroup_ball,
         "orbit_ball": _after_orbit_ball}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass.

    Times and counts are per round of the workload, so runs that fit a
    different number of rounds into their time compare directly; rates and
    ratios are over the whole pass.
    """
    selfs = tracer.self_times()
    counts = tracer.counts
    walk = tracer.walk_seconds()
    enum_busy = counts["words.ball_enumerate.busy"]
    edges = counts["engine.orbit_edges"]
    tested = counts["subgroups.tested"]
    per_round = {
        "kernels.walk_s": walk,
        "kernels.self_s": selfs["kernels"],
        "bank.sphere_sums_s": tracer.busy("bank.BankFamily.exact_sphere_sums"),
        "circle.sphere_sums_s": tracer.busy("circle.CircleFamily.exact_sphere_sums"),
        "cesaro.self_s": selfs["cesaro"],
        "words.self_s": selfs["words"],
        "words.decompose_s": tracer.busy("words.ball_decompose"),
        "subgroups.self_s": selfs["subgroups"],
        "subgroups.ball_s": tracer.busy("subgroups.subgroup_ball"),
        "engine.self_s": selfs["engine"],
        "engine.apply_calls": counts["engine.apply_calls"],
        "bank.self_s": selfs["bank"],
        "bank.classify_s": tracer.busy("bank.classify_periodicity"),
        "circle.self_s": selfs["circle"],
        "circle.periodic_set_s": tracer.busy("circle.periodic_set"),
        "cli.self_s": selfs["cli"],
        "repro.self_s": selfs["repro"],
    }
    out = {name: (value / rounds, "count" if name.endswith("calls") else "s")
           for name, value in per_round.items()}
    out["kernels.nodes_per_s"] = (counts["kernels.nodes"] / walk if walk else 0.0, "1/s")
    out["words.enumerate_nodes_per_s"] = (
        counts["words.ball_enumerate.items"] / enum_busy if enum_busy else 0.0, "1/s")
    out["subgroups.member_hit_ratio"] = (
        counts["subgroups.members"] / tested if tested else 0.0, "ratio")
    out["engine.applies_per_edge"] = (
        counts["engine.orbit_applies"] / edges if edges else 0.0, "ratio")
    return out
