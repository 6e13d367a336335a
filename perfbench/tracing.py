"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the `schubpuzzles`
modules with wrappers, at every module attribute where callers look them up
(`schubert` imports `transfer` by name, `weyl` calls `diagram.transfer`,
`Polynomial.__mul__` is looked up on the class). Each wrapped call records
one span -- layer, start, end, parent span and op id -- in flat arrays that
stay in memory until the run ends, and adds to the layer's counters. A
layer's self time is its spans' time minus their child spans' time.
`Tracer.installed` restores every original on exit.

Layers whose target no longer exists are skipped, so a later change to the
program can only make a layer read zero, never break the traced run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "schubpuzzles"
MARK = "_perfbench_layer"
OP_LAYER = "op"
TRACE_LAYER = "trace.bookkeeping"

# (layer, module, function) for module-level functions. diagram.transfer is
# split into one layer per diagram family when it is called.
FUNCTIONS = [
    ("diagram.transfer", "diagram", "transfer"),
    ("diagram.enumerate", "diagram", "enumerate_labelings"),
    ("diagram.build", "diagram", "build_triangle_diagram"),
    ("diagram.build", "diagram", "build_half_diagram"),
    ("diagram.build", "diagram", "build_wiring_diagram"),
    # outside the lru_cache, so that cache hits count as calls
    ("weyl.restriction", "weyl", "restriction"),
    ("weyl.subword", "weyl", "subword_restriction"),
    ("weyl.shortest_lift", "weyl", "shortest_lift"),
    ("schubert.specialize", "schubert", "specialize_to_half_torus"),
    ("schubert", "schubert", "restrict_to_spgr"),
    ("schubert", "schubert", "two_step_product"),
    ("schubert", "schubert", "crosscheck_restriction"),
    ("cli", "cli", "main"),
]

# (layer, module, class, attribute) for methods.
METHODS = [
    ("poly.mul", "poly", "Polynomial", "__mul__"),
    ("poly.mul", "poly", "Polynomial", "__rmul__"),
    ("poly.add", "poly", "Polynomial", "__add__"),
    ("poly.add", "poly", "Polynomial", "__radd__"),
    ("poly.substitute", "poly", "Polynomial", "substitute"),
    ("poly.pow", "poly", "Polynomial", "__pow__"),
    ("poly.format", "poly", "Polynomial", "machine"),
    ("poly.format", "poly", "Polynomial", "__str__"),
    ("schubert", "schubert", "ExpansionResult", "to_json_dict"),
    ("labels.strings", "labels", "Gr", "strings"),
    ("labels.strings", "labels", "SpGr", "strings"),
    ("labels.strings", "labels", "Fl", "strings"),
]


def _nterms(p) -> int:
    if isinstance(p, int):
        return 1 if p else 0
    # The packed term dict is read directly: unpacking every operand through
    # the public terms() would cost more than the multiplication it measures.
    terms = getattr(p, "_terms", None)
    return len(terms) if terms is not None else len(p.terms())


def _is_unit(p) -> bool:
    if isinstance(p, int):
        return p in (1, -1)
    return p.constant_value() in (1, -1)


def _transfer_layer(args) -> str:
    return "diagram.transfer." + args[0].name.split("(")[0]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """Names of package attributes that currently hold a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{a}"
                          for a, v in vars(value).items() if hasattr(v, MARK)]
    return found


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # time the tracer spent on each span's direct children, outside them
        self.span_hidden = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._op = -1
        self._seen_transfers: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self._restriction_cache = None
        self._root = self.wrap(lambda body: body(), OP_LAYER)

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    # -- counters at the wrapped boundaries -------------------------------

    def _count_mul(self, name, args, result) -> None:
        self.counts["poly.mul.term_products"] += _nterms(args[0]) * _nterms(args[1])
        if _is_unit(args[0]) or _is_unit(args[1]):
            self.counts["poly.mul.unit_ops"] += 1

    def _count_substitute(self, name, args, result) -> None:
        self.counts["poly.substitute.terms_in"] += _nterms(args[0])

    def _count_transfer(self, name, args, result) -> None:
        self.counts[name + ".states_out"] += len(result)
        key = (args[0].name, tuple(args[1]))
        if key in self._seen_transfers:
            self.counts["diagram.transfer.repeats"] += 1
        self._seen_transfers.add(key)

    def _count_enumerate(self, name, args, result) -> None:
        self.counts["diagram.enumerate.labelings_out"] += len(result)

    def _count_strings(self, name, args, result) -> None:
        self.counts["labels.strings.walked"] += 3 ** args[0].rank
        self.counts["labels.strings.returned"] += len(result)

    # -- spans --------------------------------------------------------------

    def wrap(self, fn, layer: str):
        """A wrapper around fn that records one span of `layer` per call.

        The span covers only the call itself. The tracer's own work around
        it is charged to the parent span's `hidden` time, so that it counts
        against no layer's self time."""
        split = layer == "diagram.transfer"
        fixed = None if split else self.layer_id(layer)
        count = {
            "diagram.transfer": self._count_transfer,
            "poly.mul": self._count_mul,
            "poly.substitute": self._count_substitute,
            "diagram.enumerate": self._count_enumerate,
            "labels.strings": self._count_strings,
        }.get(layer)
        span_layer, span_parent, span_op = self.span_layer, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        span_hidden, stack = self.span_hidden, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            entered = clock()
            name = _transfer_layer(args) if split else layer
            idx = len(span_start)
            span_layer.append(fixed if fixed is not None else tracer.layer_id(name))
            span_parent.append(stack[-1])
            span_op.append(tracer._op)
            span_start.append(0.0)
            span_end.append(0.0)
            span_hidden.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if count is not None:
                count(name, args, result)
            parent = stack[-1]
            if parent >= 0:
                span_hidden[parent] += (t0 - entered) + (clock() - t1)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, layer)
        return wrapper

    def run_op(self, index: int, body):
        """Run body() as benchmark op `index`, in a root span that the
        layers' spans hang from."""
        self._op = index
        try:
            return self._root(body)
        finally:
            self._op = -1

    # -- install and restore ------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self, only: set[str] | None = None):
        """Wrap every layer, or only the named ones, until the block exits."""
        modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        try:
            for layer, mod_name, fn_name in FUNCTIONS:
                original = getattr(modules.get(mod_name), fn_name, None)
                if original is None or (only is not None and layer not in only):
                    continue
                if layer == "weyl.restriction":
                    self._restriction_cache = original
                wrapper = self.wrap(original, layer)
                for m in modules.values():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, wrapper)
            for layer, mod_name, cls_name, attr in METHODS:
                cls = getattr(modules.get(mod_name), cls_name, None)
                if cls is not None and attr in vars(cls) and (only is None or layer in only):
                    self._replace(cls, attr, self.wrap(vars(cls)[attr], layer))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        """Put every original back; read the restriction cache's statistics."""
        info = getattr(self._restriction_cache, "cache_info", None)
        if info is not None:
            hits, misses, _, currsize = info()
            self.counts["weyl.restriction.hits"] = hits
            self.counts["weyl.restriction.misses"] = misses
            self.counts["weyl.restriction.cache_size"] = currsize
        self._restriction_cache = None
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: self time, split into the first op and the rest;
        outermost time; calls. Plus the counters.

        Self time is a span's time minus its children's spans and minus the
        tracer's work on them, which is reported as the layer TRACE_LAYER. A
        layer's outermost time sums its spans that are not directly inside a
        span of the same layer, less the tracer's work inside them: the
        layer's time including its children."""
        n = len(self.span_start)
        layer, parent, op, hidden = self.span_layer, self.span_parent, self.span_op, self.span_hidden
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        inner_hidden = list(hidden)  # tracer work in each span's whole subtree
        for i in range(n - 1, -1, -1):  # children come after their parents
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                inner_hidden[p] += inner_hidden[i]
        first_op = op[0] if n else -1
        parts = {"first": defaultdict(float), "rest": defaultdict(float)}
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names = self.layers
        for i in range(n):
            name = names[layer[i]]
            part = parts["first" if op[i] == first_op else "rest"]
            part[name] += dur[i] - child[i] - hidden[i]
            part[TRACE_LAYER] += hidden[i]
            calls[name] += 1
            if parent[i] < 0 or layer[parent[i]] != layer[i]:
                total[name] += dur[i] - inner_hidden[i]
        return {
            "self_first": dict(parts["first"]),
            "self_rest": dict(parts["rest"]),
            "total": dict(total),
            "calls": dict(calls),
            "counts": dict(self.counts),
        }
