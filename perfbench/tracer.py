"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces the public entry points of each ``mscheme``
module with timing wrappers, in every ``mscheme.*`` namespace that binds
them (``from .poset import verify_simplicial`` copies the binding, so each
copy is replaced).  Spans nest through one shared stack: a span's self time
is its duration minus the time of the wrapped spans it caused.  Per-element
methods (``leq``, ``join_mask``, ``_ids``, ``closure``) are left alone; they
run millions of times and their cost shows in the caller's self time.

Nothing is wrapped until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (defining module) -> wrapped public functions
LAYERS = {
    "poset": ("build_poset", "compute_rank", "verify_simplicial",
              "is_geometric_lattice", "find_isomorphism",
              "characteristic_polynomial"),
    "scheme": ("validate_scheme", "flats", "bases", "circuits", "loops",
               "isthmuses", "is_simple", "delete", "contract", "restrict",
               "localization", "scheme_isomorphism"),
    "tutte": ("tutte_direct", "tutte_delcon", "charpoly_identity"),
    "geometric": ("validate_geometric", "scheme_from_geometric",
                  "simplification"),
    "constructions": ("uniform_matroid", "linear_matroid",
                      "scheme_from_matroid", "dowling_geometric",
                      "quotient_scheme"),
    "toric": ("layers_poset", "intersect_layer", "snf"),
    "files": ("parse_poset_doc", "load_scheme", "scheme_to_doc"),
}

SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# work counts taken from the arguments or results of a wrapped call
COUNTS = ("scheme.validate_scheme.elements", "scheme.validate_scheme.pairs",
          "toric.layers_poset.layers",
          "geometric.scheme_from_geometric.elements_out",
          "tutte.tutte_delcon.input_elements",
          "tutte.tutte_delcon.verify_simplicial_calls")


class Tracer:
    """Span statistics for the wrapped functions of one process."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.self_time = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[float] = []  # child time of each open span
        self._saved: list[tuple] = []  # (module, attribute, original)

    def _count_in(self, name, args):
        if name == "scheme.validate_scheme":
            n = len(args[0].elements)
            self.counts["scheme.validate_scheme.elements"] += n
            self.counts["scheme.validate_scheme.pairs"] += n * (n - 1) // 2
        elif name == "tutte.tutte_delcon":
            self.counts["tutte.tutte_delcon.input_elements"] += len(args[0].elements)

    def _count_out(self, name, result):
        if name == "toric.layers_poset":
            self.counts["toric.layers_poset.layers"] += len(result.layers)
        elif name == "geometric.scheme_from_geometric":
            self.counts["geometric.scheme_from_geometric.elements_out"] += \
                len(result.elements)

    def wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._count_in(name, args)
            vs_before = self.calls["poset.verify_simplicial"]
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if name == "tutte.tutte_delcon":
                self.counts["tutte.tutte_delcon.verify_simplicial_calls"] += \
                    self.calls["poset.verify_simplicial"] - vs_before
            self._count_out(name, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Replace every binding of each listed function in the loaded
        ``mscheme`` modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"mscheme.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                originals[id(original)] = (original, self.wrap(f"{layer}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mscheme" or modname.startswith("mscheme.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def merge(self, other: dict):
        """Add the statistics of a :meth:`snapshot` taken in another process."""
        for name in SPANS:
            self.calls[name] += other["calls"][name]
            self.total[name] += other["total"][name]
            self.self_time[name] += other["self_time"][name]
        for name in COUNTS:
            self.counts[name] += other["counts"][name]

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_time": dict(self.self_time), "counts": dict(self.counts)}
