"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps the public functions of each ``subembed`` module from the
outside, without touching library code:

* a function is rebound in every ``subembed.*`` module that imported it by
  name, so calls made through any of those bindings are seen;
* ``FiniteGroup`` methods are patched on the class;
* scalar ``mult``, ``inverse`` and ``conj`` stay unwrapped, so their time
  lands in the caller's self time.

Every wrapped function gets a call count and a self time (its duration minus
the time spent in the wrapped calls it makes). Functions above the element
and subgroup layers also record one span each (name, start, end, parent
span); the hot element-engine and subgroup calls, about a million on
``verify-1875``, are kept as aggregates only. Cached functions also count
distinct inputs, keyed by (group, mask[, p]).
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from collections import defaultdict

# module -> functions; "Class.method" entries are patched on the class
TARGETS = {
    "catalog": ("build", "builtin_corpus"),
    "groups": (
        "generate_group",
        "closure_indices",
        "FiniteGroup.lookup_rows",
        "FiniteGroup.mult_many",
        "FiniteGroup.mult_by_many",
        "FiniteGroup.conj_by_all",
        "FiniteGroup.conj_set",
    ),
    "subgroups": (
        "span",
        "product_mask",
        "normalizer",
        "centralizer",
        "normal_closure_in",
        "p_group_maximal_subgroups",
        "cyclic_subgroups_of_order",
        "frattini_p",
    ),
    "normal": ("normal_lattice", "quotient", "subgroup_as_group"),
    "classify": (
        "sylow",
        "sylow_conjugates",
        "sylow_of_subgroup",
        "u_hypercentre",
        "radical_p_prime",
        "fitting_p",
        "f_star",
        "class_report",
    ),
    "embedding": (
        "partial_s_pi",
        "partial_pi",
        "cap",
        "gen_cap",
        "s_quasinormal",
        "s_qn_embedded",
    ),
    "harness": ("instances", "check_instance"),
}

# aggregated only, no span per call
AGGREGATE_ONLY = {"groups", "subgroups"}


def _group_mask(args):
    return (args[0], args[1].mask)


def _group_mask_p(args):
    return (args[0], args[1].mask, args[2])


# cached functions: distinct-input key from the positional arguments
DISTINCT_KEYS = {
    "subgroups.normalizer": _group_mask,
    "subgroups.p_group_maximal_subgroups": lambda a: (a[0].group, a[0].mask, a[1]),
    "normal.quotient": _group_mask,
    "normal.subgroup_as_group": lambda a: (a[0].group, a[0].mask),
    "embedding.partial_s_pi": _group_mask_p,
    "embedding.partial_pi": _group_mask,
    "embedding.cap": _group_mask,
    "embedding.gen_cap": _group_mask,
    "embedding.s_quasinormal": _group_mask,
    "embedding.s_qn_embedded": _group_mask,
}

# per-group cache sections reported by size (plus the total)
SCRATCH_SECTIONS = (
    "small_gens",
    "normalizer",
    "centralizer",
    "derived",
    "as_group",
    "quotient",
    "partial_s_pi",
)


def _subembed_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "subembed" or name.startswith("subembed."))
    ]


class LayerTracer:
    """Counts, self times, distinct inputs and spans for the wrapped calls."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.distinct: dict[str, set] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.theorem_s = defaultdict(float)
        self.group_1875_s = 0.0
        self.verdicts = defaultdict(int)
        self.truncated_groups = 0
        self.lattice_builds = self.lattice_nodes = self.lattice_covers = 0
        self._lattices: dict[int, object] = {}  # id -> lattice, kept alive
        self._child = [0.0]  # time spent in wrapped callees, per open frame
        self._open_span = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = _subembed_modules()
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"subembed.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                if "." in function:
                    cls_name, method = function.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, self._wrap(name, original))
                    continue
                original = getattr(module, function)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        key_of = DISTINCT_KEYS.get(name)
        if key_of is not None:
            self.distinct[name] = set()
            signature = inspect.signature(fn)
        spans = name.split(".")[0] not in AGGREGATE_ONLY
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        calls, self_s, child, open_span, span_list = (
            self.calls,
            self.self_s,
            self._child,
            self._open_span,
            self.spans,
        )
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if key_of is not None:
                bound = args
                if kwargs:
                    bound = tuple(signature.bind(*args, **kwargs).arguments.values())
                self.distinct[name].add(key_of(bound))
            if spans:
                span_id = len(span_list)
                span_list.append(None)
                open_span.append(span_id)
            child.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                self_s[fid] += elapsed - child.pop()
                child[-1] += elapsed
                calls[fid] += 1
                if spans:
                    open_span.pop()
                    span_list[span_id] = (fid, start, end, open_span[-1])
            if observe is not None:
                observe(args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- per-function observers (run after the call, outside its timing) ---

    def _observe_harness_instances(self, args, result, elapsed):
        theorem_id, group = args[0], args[1]
        self.theorem_s[theorem_id] += elapsed
        self.truncated_groups += int(result[1])
        if group.order == 1875:
            self.group_1875_s += elapsed

    def _observe_harness_check_instance(self, args, result, elapsed):
        inst, group = args[0], args[1]
        self.theorem_s[inst.theorem_id] += elapsed
        self.verdicts[result.verdict] += 1
        if group.order == 1875:
            self.group_1875_s += elapsed

    def _observe_normal_normal_lattice(self, args, result, elapsed):
        if id(result) not in self._lattices:  # a fresh build, not a cache hit
            self._lattices[id(result)] = result
            self.lattice_builds += 1
            self.lattice_nodes += len(result.nodes)
            self.lattice_covers += len(result.covers)

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[fid], "count")
            out[f"{name}.self_s"] = (self.self_s[fid], "s")
            if name in self.distinct:
                calls = self.calls[fid]
                ratio = len(self.distinct[name]) / calls if calls else 0.0
                out[f"{name}.distinct_ratio"] = (ratio, "ratio")
        out["normal.lattice_builds"] = (self.lattice_builds, "count")
        out["normal.lattice_nodes"] = (self.lattice_nodes, "count")
        out["normal.lattice_covers"] = (self.lattice_covers, "count")
        from subembed.harness import THEOREM_IDS

        for tid in THEOREM_IDS:
            out[f"harness.{tid}.s"] = (self.theorem_s[tid], "s")
        out["harness.group_1875.s"] = (self.group_1875_s, "s")
        out["harness.vacuous"] = (self.verdicts["vacuous"], "count")
        out["harness.confirmed"] = (self.verdicts["confirmed"], "count")
        out["harness.truncated_groups"] = (self.truncated_groups, "count")
        out.update(scratch_metrics())
        return out

    def distinct_counts(self) -> dict:
        return {name: len(keys) for name, keys in self.distinct.items()}


def scratch_metrics() -> dict:
    """Entries held in the per-group ``scratch`` caches of every live group."""
    from subembed.groups import FiniteGroup

    per_section = defaultdict(int)
    for obj in gc.get_objects():
        if isinstance(obj, FiniteGroup):
            for section, table in obj.cache.items():
                per_section[section] += len(table)
    out = {"scratch.entries": (sum(per_section.values()), "count")}
    for section in SCRATCH_SECTIONS:
        out[f"scratch.{section}.entries"] = (per_section[section], "count")
    return out
