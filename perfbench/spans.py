"""In-memory span tracer that wraps arquiver's public functions at run time.

Nothing in ``src/`` is edited: ``install`` replaces each traced function or
method, in every ``arquiver`` module that binds it, by a wrapper that times
the call.  Ordinary functions become spans, each recorded as (id, parent id,
name, start, end, self time).  Self time is the span's duration minus the
time its traced children cover.  The hot leaves ``reflect``, ``pairing``,
``prec`` and ``mq``/``mq2`` are called 10^5-10^6 times a sweep, so they are
aggregated in place as a call count and a time total, not kept as spans.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        # open frames, innermost last: [time covered by traced children, span id]
        self._stack: list[list] = []
        self._next_id = 0

    def span(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans.append((span_id, parent, name, start, end, end - start - frame[0]))

        return traced

    def leaf(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        totals = self.leaves[name]

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]

        return traced

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program, such as a host-speed
        probe, out of the self time of the innermost open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    def summary(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every span and leaf name,
        plus the raw counters."""
        out: dict[str, float] = Counter()
        for _, _, name, _, _, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        for name, (calls, _, self_s) in self.leaves.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
        out.update(self.counters)
        return dict(out)

    def write(self, path) -> None:
        payload = {
            "span_fields": ["id", "parent", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "leaves": {
                name: {"calls": c, "total_s": t, "self_s": x}
                for name, (c, t, x) in self.leaves.items()
            },
            "counters": dict(self.counters),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _rebind(original, replacement) -> None:
    """Point every arquiver module name bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "arquiver":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the arquiver package (imported first)."""
    from arquiver import ar_quiver, orders, qaffine, quiver, root_system

    def function(module, attr, name, kind="span"):
        original = getattr(module, attr)
        _rebind(original, getattr(tracer, kind)(name, original))

    def method(cls, attr, name, kind="span"):
        setattr(cls, attr, getattr(tracer, kind)(name, getattr(cls, attr)))

    function(root_system, "apply_word", "root_system.apply_word")
    function(root_system, "reflect", "root_system.reflect", "leaf")
    method(root_system.CartanDatum, "pairing", "root_system.pairing", "leaf")

    for attr in ("make_height_function", "coxeter_word", "is_adapted"):
        function(quiver, attr, "quiver")
    from_bitmask = quiver.DynkinQuiver.__dict__["from_bitmask"].__func__
    quiver.DynkinQuiver.from_bitmask = classmethod(tracer.span("quiver", from_bitmask))

    function(ar_quiver, "build", "ar_quiver.build")
    function(ar_quiver, "validate_build", "ar_quiver.validate_build")
    method(ar_quiver.ARQuiver, "descendants", "ar_quiver.descendants")
    method(ar_quiver.ARQuiver, "prec", "ar_quiver.prec", "leaf")
    method(ar_quiver.ARQuiver, "sectional_paths", "ar_quiver.sectional_paths")

    _trace_pairs_of(tracer, orders)
    for attr in ("classify_pair", "canonical_reading", "oracle_classify"):
        function(orders, attr, f"orders.{attr}")
    method(orders.ConvexOrder, "check_convexity", "orders.check_convexity")
    _trace_readings(tracer, orders)

    for attr in ("mq", "mq2"):
        function(qaffine, attr, "qaffine.mq", "leaf")
    for attr in ("denom_D1", "denom_D2"):
        function(qaffine, attr, "qaffine.denom")
    for attr in ("dorey_D1", "dorey_D2"):
        function(qaffine, attr, "qaffine.dorey")
    function(qaffine, "pair_to_triple", "qaffine.pair_to_triple")


def _trace_pairs_of(tracer: Tracer, orders) -> None:
    """Span ``pairs_of`` and count calls that repeat a (quiver, gamma) seen before."""
    original = orders.pairs_of
    timed = tracer.span("orders.pairs_of", original)
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def pairs_of(ar, gamma):
        asked = seen.setdefault(ar, set())
        if gamma in asked:
            tracer.counters["orders.pairs_of.repeats"] += 1
        asked.add(gamma)
        return timed(ar, gamma)

    _rebind(original, pairs_of)


def _trace_readings(tracer: Tracer, orders) -> None:
    """Count readings yielded and commutation-class words returned."""
    all_readings = orders.all_readings
    timed_class = tracer.span("orders.commutation_class", orders.commutation_class)

    def counted_readings(ar):
        for order in all_readings(ar):
            tracer.counters["orders.all_readings.yielded"] += 1
            yield order

    def commutation_class(datum, word):
        words = timed_class(datum, word)
        tracer.counters["orders.commutation_class.words"] += len(words)
        return words

    _rebind(all_readings, counted_readings)
    _rebind(orders.commutation_class, commutation_class)
