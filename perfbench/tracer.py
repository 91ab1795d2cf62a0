"""In-memory span tracer for the spencer layers, installed from outside.

The tracer wraps the public functions, public methods and constructors of
each layer module, records one span per call (name, id, parent id, start,
end) in memory, and turns the spans into per-layer metrics when the pass
ends.  A span's self time is its duration minus the time its child spans
cover.  Nothing in ``src/`` is edited: names are patched in every
``spencer.*`` namespace that holds them, because ``cli``, ``symbolic`` and
``covariants`` import each other's names with ``from .x import ...``.

Hot tiny value types are left unwrapped: ``JetPolynomial.__init__`` alone
runs about a million times on the oracle workload, and timing it would add
about a third to the pass.  Their cost is counted in the self time of the
nearest wrapped caller, which is in the same layer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("exactla", "symbolic", "covariants", "catalog", "jetcalc", "cli")

# Value types and index helpers whose methods are too hot and too small to
# time; wrapping them would measure the tracer instead of the layer.
UNWRAPPED = {
    "exactla": {"TensorShape"},
    "jetcalc": {"JetPolynomial", "x_var", "p_var", "u_var", "var_order"},
}

TRACER_SPAN = "tracer"


class Tracer:
    """Wraps the layer modules of one interpreter and records their spans."""

    def __init__(self):
        self.spans: List[Tuple[str, int, int, float, float]] = []
        self._stack: List[int] = [0]
        self._ids = itertools.count(1)
        self.layer_of: Dict[str, str] = {}
        self.rows_in = 0
        self.pivots_out = 0
        self.max_coeff_bits = 0
        self._cell_keys = set()
        self._lift_keys = set()
        self._caches: Dict[str, Callable] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules["spencer." + name] for name in LAYERS}
        self._caches = {"exactla.sym_basis": mods["exactla"].sym_basis,
                        "symbolic.delta_map": mods["symbolic"].delta_map}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "spencer" or n.startswith("spencer.")]
        for layer, mod in mods.items():
            skip = UNWRAPPED.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(layer, attr, obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            setattr(ns, attr, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s" % (cls.__name__, attr)
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(
                    self._wrap(layer, name, member.__func__)))
            elif callable(member):
                setattr(cls, attr, self._wrap(layer, name, member))

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        self.layer_of[name] = layer
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        observe = self._observer(layer, name)
        count_rows = name == "echelon"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_rows:
                args = (self._count_rows(args[0]),) + args[1:]
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, sid, parent, start, end))
            if observe is not None:
                # The observer's own time is a child span of the caller, so
                # it is not charged to any layer.
                observe(args, result)
                spans.append((TRACER_SPAN, next(ids), parent, end, clock()))
            return result

        return traced

    # -- observers ----------------------------------------------------------

    def _observer(self, layer: str, name: str) -> Optional[Callable]:
        if name == "echelon":
            def echelon_out(args, result):
                self.pivots_out += len(result)
            return echelon_out
        if layer == "exactla":
            subspace = sys.modules["spencer.exactla"].Subspace
            return lambda args, result: (
                self._subspace_bits_of_rows(result.rows)
                if isinstance(result, subspace) else None)
        if name == "stationary_row_space":
            return self._cell_key
        if name in ("prolong_point", "prolong_contact"):
            return self._lift_key
        return None

    def _count_rows(self, rows):
        for row in rows:
            self.rows_in += 1
            yield row

    def _subspace_bits_of_rows(self, rows) -> None:
        best = self.max_coeff_bits
        for row in rows:
            for v in row.values():
                best = max(best, v.numerator.bit_length(),
                           v.denominator.bit_length())
        self.max_coeff_bits = best

    def _cell_key(self, args, result) -> None:
        ctx, gsys, l, s = args[:4]
        # The system object itself is part of the key; holding it keeps its
        # identity unique for the rest of the pass.
        self._cell_keys.add((ctx.m, ctx.tau, gsys, l, s))

    def _lift_key(self, args, result) -> None:
        def poly_key(p):
            return (p.n, p.r, frozenset(p.terms.items()))
        if len(args) == 3:
            a, b, k = args
            key = ("point", k, tuple(map(poly_key, a)), tuple(map(poly_key, b)))
        else:
            phi, k = args
            key = ("contact", k, poly_key(phi))
        self._lift_keys.add(key)

    # -- results ------------------------------------------------------------

    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Calls and self time per span name, from the recorded spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            child_time[parent] += end - start
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for name, sid, _, start, end in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[sid]
        return stats

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass, keyed by their benchmark names."""
        stats = self.span_stats()
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                s["self_s"] for n, s in stats.items()
                if self.layer_of.get(n) == layer)

        def calls(name):
            return stats[name]["calls"]

        out["exactla.echelon.self_s"] = stats["echelon"]["self_s"]
        out["exactla.echelon.calls"] = calls("echelon")
        out["exactla.echelon.rows_in"] = self.rows_in
        out["exactla.echelon.pivots_out"] = self.pivots_out
        out["exactla.apply.calls"] = calls("LinearMap.apply")
        out["exactla.reduce_vector.calls"] = calls("Subspace.reduce_vector")
        out["exactla.max_coeff_bits"] = self.max_coeff_bits
        for metric, fn in self._caches.items():
            info = fn.cache_info()
            out[metric + ".hits"] = info.hits
            out[metric + ".misses"] = info.misses
        out["symbolic.spencer_H.calls"] = calls("spencer_H")
        out["symbolic.SymbolicSystem.calls"] = calls("SymbolicSystem.__init__")
        out["covariants.restriction_map.calls"] = calls("restriction_map")
        cells = calls("stationary_row_space")
        out["covariants.stationary_row_space.calls"] = cells
        out["covariants.cell_useful_ratio"] = \
            len(self._cell_keys) / cells if cells else 0.0
        out["catalog.symbol.calls"] = calls("symbol")
        lifts = calls("prolong_point") + calls("prolong_contact")
        out["jetcalc.lifts"] = lifts
        out["jetcalc.lift_useful_ratio"] = \
            len(self._lift_keys) / lifts if lifts else 0.0
        out["jetcalc.total_derivative.calls"] = calls("total_derivative")
        return out
