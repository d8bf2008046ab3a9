"""Wrappers that time calls into qhilb's public functions from outside.

The traced benchmark run installs them; the untraced run never imports
this module.  Every wrapper is patched in where its caller looks the name
up: a function is replaced in each qhilb module whose namespace holds it
(``gw_engine`` imports ``cup``, ``dual_groups`` and ``divisor_degree`` from
``chow`` by name), a method on its class.

Hot functions aggregate a call count plus total and self time.  Coarse
calls additionally record one span each (id, parent id, name, start, end).
Self time is a call's duration minus the part covered by wrapped calls it
made.  Times come from the ``clock`` the tracer is given (the benchmark's
reference-speed clock).  Everything stays in memory until ``Tracer.dump``.
"""

from __future__ import annotations

import contextlib
import json
import sys

# (metric prefix, module, attribute path, records spans)
TARGETS = (
    ("chow.cup", "qhilb.chow", "cup", False),
    ("chow.dual_groups", "qhilb.chow", "dual_groups", False),
    ("chow.divisor_degree", "qhilb.chow", "divisor_degree", False),
    ("gw_engine.val_mul", "qhilb.gw_engine", "val_mul", False),
    ("gw_engine.splittings", "qhilb.gw_engine", "splittings", False),
    ("gw_engine.dimension_check", "qhilb.gw_engine", "dimension_check", False),
    ("gw_engine.SeedTable.lookup", "qhilb.gw_engine", "SeedTable.lookup", False),
    ("gw_engine.Engine.invariant", "qhilb.gw_engine", "Engine.invariant", False),
    ("gw_engine.Engine.derive_two_point_table", "qhilb.gw_engine",
     "Engine.derive_two_point_table", True),
    ("quantum.SmallQuantum.basis_product", "qhilb.quantum", "SmallQuantum.basis_product", True),
    ("quantum.SmallQuantum.product", "qhilb.quantum", "SmallQuantum.product", False),
    ("quantum.SmallQuantum.cup", "qhilb.quantum", "SmallQuantum.cup", False),
    ("quantum.verify_all", "qhilb.quantum", "verify_all", True),
    ("quantum.load_relations", "qhilb.quantum", "load_relations", True),
    ("coeffring.QSeries.mul", "qhilb.coeffring", "QSeries.__mul__", False),
    ("coeffring.QSeries.add", "qhilb.coeffring", "QSeries.__add__", False),
    ("hyperelliptic.forward_invariants", "qhilb.hyperelliptic", "forward_invariants", True),
    ("hyperelliptic.invert_counts", "qhilb.hyperelliptic", "invert_counts", True),
    ("cli.build_engine", "qhilb.cli", "build_engine", True),
    ("cli.main", "qhilb.cli", "main", True),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "hits")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stats = {}
        self.spans = []
        self.absent = []
        # one entry per active wrapped call: [time covered by wrapped children]
        self._stack = [[0.0]]
        self._span_stack = [None]

    # -- recording ------------------------------------------------------------

    def _wrap(self, prefix, fn, spans):
        stat = self.stats.setdefault(prefix, Stat())
        stack = self._stack
        span_stack = self._span_stack
        span_list = self.spans
        clock = self.clock
        count_hits = prefix == "gw_engine.SeedTable.lookup"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if spans:
                span_id = len(span_list)
                span = [span_id, span_stack[-1], prefix, 0.0, 0.0]
                span_list.append(span)
                span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if spans:
                    span_stack.pop()
                    span[3] = start
                    span[4] = start + elapsed
            if count_hits and result is not None:
                stat.hits += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code (a job)."""
        record = [len(self.spans), self._span_stack[-1], name, self.clock(), 0.0]
        self.spans.append(record)
        self._span_stack.append(record[0])
        try:
            yield
        finally:
            self._span_stack.pop()
            record[4] = self.clock()

    # -- installation -----------------------------------------------------------

    def install(self):
        """Patch every target that still exists; record the missing ones."""
        for prefix, module_name, path, spans in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(prefix)
                continue
            wrapper = self._wrap(prefix, original, spans)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "qhilb" or name.startswith("qhilb."):
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)

    # -- output -------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer numbers by metric name; absent targets are left out."""
        out = {}
        for prefix, stat in self.stats.items():
            out[prefix + ".calls"] = stat.calls
            out[prefix + ".s"] = stat.total
            out[prefix + ".self_s"] = stat.self_time
            if prefix == "gw_engine.SeedTable.lookup":
                out[prefix + ".hit_ratio"] = stat.hits / stat.calls if stat.calls else 0.0
        return out

    def dump(self, path, extra):
        payload = dict(extra)
        payload["spans"] = [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
            for s in self.spans
        ]
        payload["layers"] = self.layer_metrics()
        payload["absent"] = self.absent
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)

