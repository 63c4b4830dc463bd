"""Outside-in tracer: spans around pfcalc's public functions.

The tracer replaces each public function of each pfcalc module by a wrapper
at every name the function is bound under (for example both
`groebner.buchberger` and `geometry.buchberger`), plus a few methods:
`is_field` on every ring class, `GBCache.lookup`/`GBCache.store` and
`SchurAlgebra.structure_constants`.  The `rule` closure of a transformation
is wrapped when `sum_of_powers` returns it.  Nothing in pfcalc changes on
disk; `uninstall` puts every original back.

Spans are kept in memory as (name, start, end, parent index, job id,
outermost) and written out by the caller at the end.  Exact counts taken
from returned values (basis sizes, coefficient bits, cache hits, good-primes
verdict paths) go into `counts`.

Timed runs never import this module.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Dict, List, Tuple

# (module.class, method) pairs wrapped besides the module-level functions
METHODS = (("cli.GBCache", "lookup"), ("cli.GBCache", "store"),
           ("schur.SchurAlgebra", "structure_constants"))


def coeff_bits(c) -> int:
    """Bit length of an exact coefficient payload (int, Fraction or tuple)."""
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, tuple):
        return max((coeff_bits(x) for x in c), default=0)
    raise TypeError(f"unexpected coefficient payload {type(c).__name__}")


def _count_buchberger(counts, args, kwargs, result):
    counts["groebner.buchberger.in_gens"] += len(args[0])
    counts["groebner.buchberger.out_gens"] += len(result.generators)
    bits = max((coeff_bits(c) for g in result.generators
                for c in g.terms.values()), default=0)
    key = "groebner.buchberger.out_coeff_bits"
    counts[key] = max(counts[key], bits)


def _count_closed_subset(counts, args, kwargs, result):
    generators = args[3] if len(args) > 3 else kwargs["generators"]
    if tuple(result.gb.generators) != tuple(generators):
        counts["geometry.closed_subset.changed"] += 1


def _count_good_primes(counts, args, kwargs, result):
    for v in result.verdicts:
        counts["geometry.good_primes." +
               ("recomputed" if v.recomputed else "verified")] += 1


def _count_lookup(counts, args, kwargs, result):
    counts["cli.GBCache.lookup." + ("misses" if result is None else "hits")] += 1


COUNTERS = {
    "groebner.buchberger": _count_buchberger,
    "geometry.closed_subset": _count_closed_subset,
    "geometry.good_primes": _count_good_primes,
    "cli.GBCache.lookup": _count_lookup,
}


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self):
        """Start a fresh set of spans and counts (one traced pass)."""
        self.spans, self.counts = [], Counter()

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[name] == 0
            stack.append(idx)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job, outer)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_sum_of_powers(self, fn):
        @functools.wraps(fn)
        def sum_of_powers(*args, **kwargs):
            alpha = fn(*args, **kwargs)
            return dataclasses.replace(
                alpha, rule=self.wrap("geometry.rule", alpha.rule))

        return self.wrap("geometry.sum_of_powers", sum_of_powers)

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: Dict[str, object]):
        """Wrap public functions of `modules` (short name -> module object)."""
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                if id(obj) not in wrappers:
                    name = f"{home}.{obj.__name__}"
                    wrappers[id(obj)] = (self._wrap_sum_of_powers(obj)
                                         if name == "geometry.sum_of_powers"
                                         else self.wrap(name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("_") and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        rings = modules["rings"]
        for cls in vars(rings).values():
            if (inspect.isclass(cls) and issubclass(cls, rings.BaseRing)
                    and "is_field" in vars(cls)):
                self._patch(cls, "is_field",
                            self.wrap("rings.is_field", vars(cls)["is_field"]))
        for owner_path, attr in METHODS:
            short, cls_name = owner_path.split(".")
            cls = getattr(modules[short], cls_name)
            self._patch(cls, attr, self.wrap(f"{owner_path}.{attr}",
                                             vars(cls)[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- summaries -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: calls, s (outermost spans only) and self_s."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        spans = self.spans
        for name, t0, t1, parent, _job, outer in spans:
            d = t1 - t0
            row = out[name]
            row["calls"] += 1
            row["self_s"] += d
            if outer:
                row["s"] += d
            if parent >= 0:
                out[spans[parent][0]]["self_s"] -= d
        return out
