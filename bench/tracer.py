"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install()`` wraps every public function of each layer module and
rebinds the wrapper at every ``multinv`` module that imported the function by
name (``multinv.classify.sylow`` as well as ``multinv.matgroup.sylow``), plus
the methods listed in ``METHODS``.  Each call records a span (name, start,
end, parent) in flat arrays kept in memory; ``write`` saves them when the run
ends.  A span's self time is its duration minus the durations of its direct
children.  The untraced benchmark never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# the module layers under src/multinv that the workloads reach
LAYERS = ("cli", "classify", "action", "cohomology", "laurent", "fparith",
          "matgroup", "intlinalg")

# (module, class, method) -> span name
METHODS = {
    ("matgroup", "MatGroup", "mult_table"): "matgroup.mult_table",
    ("matgroup", "MatGroup", "closure_indices"): "matgroup.closure_indices",
    ("fparith", "SpanFp", "add"): "fparith.span_add",
    ("fparith", "SpanFp", "contains"): "fparith.span_contains",
}

# spans whose call counts and self-time shares the metric table reports
CALLS = ("matgroup.mult_table", "matgroup.generate", "matgroup.closure_indices",
         "matgroup.op_core", "intlinalg.intmat", "intlinalg.snf",
         "intlinalg.fixed_lattice", "intlinalg.intersect", "intlinalg.covers",
         "fparith.rref_fp", "fparith.span_add", "fparith.span_contains",
         "cohomology.resolution", "cohomology.mu_p", "action.mu_action",
         "laurent.orbit_sum")
SELF_TIMES = ("matgroup.mult_table", "matgroup.subgroups", "matgroup.sylow",
              "intlinalg.snf", "intlinalg.covers", "fparith.nullspace_fp",
              "cohomology.resolution", "action.isotropy_subgroups",
              "laurent.invariant_dim_in_ball", "classify.classify")
COUNTERS = ("matgroup.mult_table.entries", "matgroup.generate.elements",
            "matgroup.subgroups.found", "matgroup.subgroup_conjugacy_classes.classes",
            "cohomology.resolution.rank_sum", "action.isotropy_subgroups.realized",
            "action.isotropy_subgroups.attempts")
RULES = tuple(f"R{i}" for i in range(1, 9))


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, pre=None, post=None):
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(self, result)
            return result

        return traced

    def _parent_is(self, name: str) -> bool:
        top = self._stack[-1]
        return top >= 0 and self._names[self.name_id[top]] == name

    # -- counters computed at the layer boundary ----------------------------

    def _hooks(self) -> dict[str, tuple]:
        c = self.counters

        def table_entries(_, args):
            G = args[0]
            if G._table is None:  # first call on this group object builds it
                c["matgroup.mult_table.entries"] += G.order ** 2

        def classes(t, result):
            c["matgroup.subgroup_conjugacy_classes.classes"] += len(result)
            if t._parent_is("action.isotropy_subgroups"):
                c["action.isotropy_subgroups.attempts"] += len(result)

        def add(counter, size):
            def post(_, result):
                c[counter] += size(result)
            return post

        return {
            "matgroup.mult_table": (table_entries, None),
            "matgroup.generate": (None, add("matgroup.generate.elements", lambda G: G.order)),
            "matgroup.subgroups": (None, add("matgroup.subgroups.found", len)),
            "matgroup.subgroup_conjugacy_classes": (None, classes),
            "cohomology.resolution": (None, add("cohomology.resolution.rank_sum",
                                                lambda res: sum(res.ranks))),
            "action.isotropy_subgroups": (None, add("action.isotropy_subgroups.realized",
                                                    lambda rep: len(rep.entries))),
            "classify.classify": (None, lambda _, v: c.update([f"classify.verdicts.{v.rule}"])),
        }

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"multinv.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(name, obj, *hooks.get(name, (None, None))))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "multinv" or mod_name.startswith("multinv.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"multinv.{layer}"), cls_name)
            self._patch(cls, meth, self._wrap(name, vars(cls)[meth], *hooks.get(name, (None, None))))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self._names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self._names)}

    def write(self, path: str) -> None:
        """Save the spans as numpy arrays: name index, parent span index
        (-1 for none), start and end in seconds, and the name table."""
        np.savez(path, name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(self._names))


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass of the job list.

    Times are given as shares of ``trace.total_s``, the traced time of a
    pass, so that a layer a workload never reaches reads 0 as a share rather
    than as a time; its self time is its share times ``trace.total_s``."""
    stats = tracer.per_name()
    c = tracer.counters
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in stats.items():
        layer_self[name.split(".", 1)[0]] += self_s
    total = sum(layer_self.values())
    out = {"trace.total_s": (total / passes, "s")}
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / total, "ratio")
    for name in SELF_TIMES:
        out[f"{name}.share"] = (stats.get(name, (0, 0.0))[1] / total, "ratio")
    for name in CALLS:
        out[f"{name}.calls"] = (stats.get(name, (0, 0.0))[0] / passes, "count")
    for name in COUNTERS:
        out[name] = (c[name] / passes, "count")
    attempts = c["action.isotropy_subgroups.attempts"]
    out["action.isotropy_subgroups.realized_share"] = (
        c["action.isotropy_subgroups.realized"] / attempts if attempts else 0.0, "ratio")
    for rule in RULES:
        out[f"classify.verdicts.{rule}"] = (c[f"classify.verdicts.{rule}"] / passes, "count")
    return out
