"""Per-layer tracing of chorkit from outside the package.

``Tracer.install`` replaces selected public and private functions with
wrappers that record a span (name, parent, start, end) per call.  Modules
copy names with ``from .x import f``, so every module global and class
attribute bound to the original is replaced.  A recursive function, or a family of mutually recursive
ones that share a span name, is recorded only at its outermost frame.

Spans stay in memory until ``dump``.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum over
its spans.  Work the tracer itself does after a call (hashing for distinct
counts, counting parsed nodes) is recorded as a ``(tracer)`` child span,
so it is not charged to the caller.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

TRACER = "(tracer)"

# (module, attribute or Class.attribute, span name)
TARGETS = [
    ("terms", "Queue.enqueue", "terms.queue.enqueue"),
    ("terms", "Queue.dequeue_from", "terms.queue.dequeue"),
    ("values", "eval_expr", "values.eval"),
    ("values", "eval_with_cell", "values.eval"),
    ("parse", "parse_choreography", "parse"),
    ("parse", "parse_network", "parse"),
    ("parse", "parse_expr", "parse"),
    ("render", "render", "render"),
    ("render", "render_value", "render"),
    ("render", "render_expr", "render"),
    ("render", "render_choreography", "render"),
    ("render", "render_behaviour", "render"),
    ("render", "render_network", "render"),
    ("sync", "enabled", "sync.enabled"),
    ("sync", "gc", "sync.gc"),
    ("sync", "Configuration.key", "sync.key"),
    ("chor_async", "well_formed", "chor_async.well_formed"),
    ("chor_async", "check_abstract_async", "chor_async.check_abstract_async"),
    ("network", "enabled_sp", "network.enabled_sp"),
    ("network", "enabled_asp", "network.enabled_asp"),
    ("network", "normalize_network", "network.normalize_network"),
    ("network", "classify", "network.classify"),
    ("network", "gc_behaviour", "network.gc_behaviour"),
    ("network", "network_key", "network.key"),
    ("project", "epp_sync", "project.epp"),
    ("project", "epp_async", "project.epp"),
    ("project", "projectable", "project.projectable"),
    ("project", "project_behaviour", "project.project_behaviour"),
    ("congruence", "network_equiv", "congruence.network_equiv"),
    ("congruence", "canonical", "congruence.canonical"),
    ("run", "run_chor", "run.run"),
    ("run", "run_network", "run.run"),
    ("run", "format_trace", "run.format_trace"),
    ("run", "LeftmostScheduler.pick", "run.pick"),
    ("run", "RandomScheduler.pick", "run.pick"),
    ("verify", "generate_corpus", "verify.generate_corpus"),
    ("verify", "explore_chor", "verify.explore"),
    ("verify", "explore_network", "verify.explore"),
    ("verify", "_join_search", "verify.join_search"),
    ("verify", "_greedy_join", "verify.greedy_join"),
    ("verify", "check_deadlock_freedom", None),  # t1 or t5, by mode
    ("verify", "check_epp_sync", "verify.check.t2"),
    ("verify", "check_epp_async", "verify.check.t8"),
    ("verify", "check_async_equivalence", "verify.check.t6"),
    ("verify", "check_diamond", "verify.check.diamond"),
    ("verify", "check_sp_asp_simulation", "verify.check.t7"),
    ("verify", "check_well_formedness_preservation", "verify.check.wf"),
    ("verify", "check_abstract_asynchrony", "verify.check.abstract-async"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_project", "cli.project"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_verify", "cli.verify"),
]

THEOREMS = ("t1", "t5", "t2", "t8", "t6", "diamond", "t7", "wf",
            "abstract-async")
MODULES = ("cli", "verify", "run", "sync", "chor_async", "network", "terms",
           "values", "parse", "render", "project", "congruence")
COUNTED = ("sync.enabled", "sync.gc", "chor_async.well_formed",
           "network.enabled_sp", "network.enabled_asp",
           "network.normalize_network", "network.classify",
           "terms.queue.enqueue", "terms.queue.dequeue", "project.epp",
           "project.projectable", "congruence.network_equiv", "parse",
           "values.eval", "verify.explore")
# The per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"{n}.{k}", u, b) for n in COUNTED
     for k, u, b in (("calls", "count", "lower"), ("self_s", "s", "lower"))]
    + [("sync.enabled.distinct", "count", "lower"),
       ("sync.enabled.repeat_ratio", "ratio", "lower"),
       ("chor_async.check_abstract_async.self_s", "s", "lower"),
       ("terms.queue.max_lane", "count", "lower"),
       ("render.key.self_s", "s", "lower"),
       ("render.trace.self_s", "s", "lower"),
       ("render.other.self_s", "s", "lower"),
       ("render.chars", "count", "lower"),
       ("parse.nodes_per_s", "1/s", "higher"),
       ("verify.explore.states", "count", "lower"),
       ("verify.explore.edges", "count", "lower"),
       ("verify.join_search.calls", "count", "lower"),
       ("verify.greedy_join.calls", "count", "lower"),
       ("run.steps", "count", "higher"),
       ("run.pick.self_s", "s", "lower"),
       ("run.format_trace.self_s", "s", "lower")]
    + [(f"verify.check.{t}.s", "s", "lower") for t in THEOREMS]
    + [(f"cli.{c}.s", "s", "lower")
       for c in ("check", "project", "run", "simulate", "verify")]
    + [(f"share.{m}", "share", "lower") for m in MODULES]
    + [("trace.spans", "count", "lower"),
       ("trace.overhead", "ratio", "lower"),
       ("cli.recursion_errors", "count", "lower"),
       ("verify.probe_failures", "count", "lower")])


def _count_nodes(term) -> int:
    """Dataclass nodes in a parsed term, without recursion."""
    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        fields = getattr(node, "__dataclass_fields__", None)
        if fields is None:
            if isinstance(node, tuple):
                stack.extend(node)
            continue
        count += 1
        stack.extend(getattr(node, f) for f in fields)
    return count


class Tracer:
    def __init__(self):
        self.names, self._ids = [], {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self._depth = {}
        self._patches = []
        self.distinct = set()
        self.counts = {"edges": 0, "states": 0, "chars": 0, "nodes": 0,
                       "steps": 0, "max_lane": 0}
        self._limit = None

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name):
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self):
        top = self._stack[-1]
        return self.names[self.name[top]] if top >= 0 else None

    def _bookkeep(self, fn, *args):
        index = self._open(TRACER)
        try:
            fn(*args)
        finally:
            self._close(index)

    def wrap(self, fn, span):
        tracer, depth = self, self._depth
        after = getattr(self, "_after_" + (span or "").replace(".", "_"),
                        None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span or _deadlock_span(args, kwargs)
            if depth.get(name):
                return fn(*args, **kwargs)
            depth[name] = 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                depth[name] = 0
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- counters taken at layer boundaries ---------------------------------

    def _after_sync_enabled(self, result, args):
        if self._parent_name() == "verify.explore":
            self.counts["edges"] += len(result)
        self._bookkeep(self._note_distinct, args)

    def _note_distinct(self, args):
        # Pairs count as distinct per outermost span (one CLI command): a
        # cache inside chorkit lives only as long as one command.
        self.distinct.add((self._stack[1], hash((args[0], args[1]))))

    def _after_network_enabled_sp(self, result, args):
        if self._parent_name() == "verify.explore":
            self.counts["edges"] += len(result)

    _after_network_enabled_asp = _after_network_enabled_sp

    def _after_verify_explore(self, result, args):
        self.counts["states"] += len(result[0])

    def _after_terms_queue_enqueue(self, result, args):
        longest = max(len(lane) for _, lane in result.lanes)
        if longest > self.counts["max_lane"]:
            self.counts["max_lane"] = longest

    def _after_render(self, result, args):
        self.counts["chars"] += len(result)

    def _after_parse(self, result, args):
        self._bookkeep(self._note_nodes, result)

    def _note_nodes(self, result):
        self.counts["nodes"] += _count_nodes(result)

    def _after_run_run(self, result, args):
        self.counts["steps"] += len(result.steps)

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "chorkit" or n.startswith("chorkit.")]
        # Every namespace that can hold a binding: chorkit's modules and the
        # classes they define.
        owners = modules + list({
            id(v): v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("chorkit")
        }.values())
        for module_name, attr, span in TARGETS:
            fn = sys.modules[f"chorkit.{module_name}"]
            for part in attr.split("."):
                fn = vars(fn)[part]
            wrapper = self.wrap(fn, span)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._set(owner, key, wrapper)
        # Each wrapped recursive call adds frames; keep chorkit's own depth
        # headroom the same as untraced.
        self._limit = sys.getrecursionlimit()
        sys.setrecursionlimit(self._limit * 4)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        if self._limit is not None:
            sys.setrecursionlimit(self._limit)
            self._limit = None

    # -- results ------------------------------------------------------------

    def self_times(self):
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def metrics(self):
        dur, own = self.self_times()
        names = self.names
        calls = [0] * len(names)
        total = [0.0] * len(names)
        selfs = [0.0] * len(names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += dur[i]
            selfs[nid] += own[i]
        by = {names[k]: (calls[k], total[k], selfs[k])
              for k in range(len(names))}

        def get(name, field):
            return by.get(name, (0, 0.0, 0.0))[field]

        # Render time is split by the nearest enclosing key or trace span.
        key_ids = {self._ids.get("sync.key"), self._ids.get("network.key")}
        trace_id = self._ids.get("run.format_trace")
        render_id = self._ids.get("render")
        context = bytearray(len(self.start))  # 0 other, 1 key, 2 trace
        render = [0.0, 0.0, 0.0]
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if nid in key_ids:
                context[i] = 1
            elif nid == trace_id:
                context[i] = 2
            elif p >= 0:
                context[i] = context[p]
            if nid == render_id:
                render[context[i]] += own[i]

        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = get(name, 0)
            out[f"{name}.self_s"] = get(name, 2)
        enabled = get("sync.enabled", 0)
        out["sync.enabled.distinct"] = len(self.distinct)
        out["sync.enabled.repeat_ratio"] = (
            enabled / len(self.distinct) if self.distinct else 0.0)
        out["chor_async.check_abstract_async.self_s"] = get(
            "chor_async.check_abstract_async", 2)
        out["terms.queue.max_lane"] = self.counts["max_lane"]
        out["render.other.self_s"], out["render.key.self_s"], \
            out["render.trace.self_s"] = render
        out["render.chars"] = self.counts["chars"]
        parse_s = get("parse", 2)
        out["parse.nodes_per_s"] = (self.counts["nodes"] / parse_s
                                    if parse_s else 0.0)
        out["verify.explore.states"] = self.counts["states"]
        out["verify.explore.edges"] = self.counts["edges"]
        out["verify.join_search.calls"] = get("verify.join_search", 0)
        out["verify.greedy_join.calls"] = get("verify.greedy_join", 0)
        out["run.steps"] = self.counts["steps"]
        out["run.pick.self_s"] = get("run.pick", 2)
        out["run.format_trace.self_s"] = get("run.format_trace", 2)
        for t in THEOREMS:
            out[f"verify.check.{t}.s"] = get(f"verify.check.{t}", 1)
        for c in ("check", "project", "run", "simulate", "verify"):
            out[f"cli.{c}.s"] = get(f"cli.{c}", 1)
        module_self = dict.fromkeys(MODULES, 0.0)
        for name, (_, _, s) in by.items():
            module = name.split(".")[0]
            if module in module_self:
                module_self[module] += s
        busy = sum(module_self.values())
        for m in MODULES:
            out[f"share.{m}"] = module_self[m] / busy if busy else 0.0
        out["trace.spans"] = len(self.start)
        units = {n: u for n, u, _ in PER_LAYER}
        return {k: (v, units[k]) for k, v in out.items()}

    def dump(self, stem):
        """Write the spans: ``stem.json`` (names and layout) and
        ``stem.bin`` (name ids, parent indices, starts, ends)."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "arrays": ["name:int32", "parent:int32",
                                  "start:float64", "end:float64"],
                       "clock": "time.perf_counter seconds"}, fh)
        return stem + ".bin"


def _deadlock_span(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return "verify.check.t1" if mode == "sync" else "verify.check.t5"
