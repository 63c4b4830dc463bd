"""Command-line front end: JSON job configs in, deterministic reports out.

Eight commands cover the library surface: ring-of-module, schur-table,
dimfn, image-closure, dim-per-prime, good-primes, equivariance, taylor.
Primary output (text or json) is byte-identical across reruns of the same
config; csv additionally carries wall-clock timings.  Groebner bases for
image closures are cached on disk keyed by a content hash of the graph
ideal, the monomial order, and the field tag.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from itertools import chain
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

from . import geometry
from .coordring import check_system_size, graded_piece
from .fpmod import FPModule
from .functors import dimension_function, parse_functor, rank_at
from .geometry import (MAX_VARIABLES, ClosedSubsetAtRank, PolyTransformation,
                       SizeGuardExceeded, equivariance_check, good_primes,
                       image_closure, sum_of_powers)
from .groebner import GroebnerBasis, ideal_dimension
from .poly import (Grevlex, MultiPoly, VarSet, format_poly, order_from_tag, parse_poly,
                   parse_polys)
from .render import render_json
from .rings import ZZ, BaseRing, PRIME_TEST_LIMIT, fraction_field_reduction, \
    is_prime, ring_from_tag

COMMANDS = ("ring-of-module", "schur-table", "dimfn", "image-closure",
            "dim-per-prime", "good-primes", "equivariance", "taylor")

CACHE_VERSION = "1"

# ring-of-module, schur-table and dimfn refuse a degree above this
MAX_DEGREE = 8

# main reads and prints no integer of more digits than this, whatever PYTHONINTMAXSTRDIGITS
# says (quadratic: 0.3 ms at 4,228 digits, 25 s at 1.2M on a 2-vCPU VM); a printed one exits 3
INT_DIGIT_LIMIT = 4_300

# schur-table refuses a table whose size bound (see _cmd_schur_table) is
# above this; (3, 4) and (2, 8) stay under it, (4, 3) and (6, 2) do not, nor,
# from the products z_il built first, (13, 0) and (12, 1) (n = 25 at d = 0
# took 1.3 s)
SCHUR_TABLE_LIMIT = 500_000

# dimfn refuses a functor whose rank at the window is above this, to bound
# its running time, which grows faster than the rank (Sym(4) with primes 2-7
# in a fresh process on a 2-vCPU Xeon VM: 0.10-0.15 s and 19 MB peak RSS at
# window 12, rank 1,365; 0.24-0.33 s and 21 MB at window 14, rank 2,380;
# 0.52-0.55 s and 22 MB at window 16, rank 3,876)
DIMFN_RANK_LIMIT = 2_500

# dimfn refuses a window above this too: a functor of degree 0 has one rank
# at every window, so the rank guard does not bound it (Const(ZZ) with
# primes 2, 3: 0.05 s at window 2,500, 0.14 s at 5,000, 1.6 s at 20,000)
DIMFN_WINDOW_LIMIT = 2_500

class ConfigError(ValueError):
    """Invalid job config; the message names the offending key."""


# ---------------------------------------------------------------------------
# Config plumbing


def _check_keys(cfg: dict, allowed: Sequence[str], where: str = "config"):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key {unknown[0]!r}")


def _is_int(x) -> bool:
    """Is x an integer?  JSON true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _need(cfg: dict, key: str, typ, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing {where} key {key!r}")
    val = cfg[key]
    if typ is not None and (not isinstance(val, typ) or isinstance(val, bool)):
        raise ConfigError(f"{where} key {key!r} has the wrong type "
                          f"({type(val).__name__})")
    return val


def _opt(cfg: dict, key: str, typ, default, where: str = "config"):
    if key not in cfg:
        return default
    return _need(cfg, key, typ, where)


def _prime_list(cfg: dict) -> List[int]:
    primes = _need(cfg, "primes", list)
    for p in primes:
        if not _is_int(p) or p >= PRIME_TEST_LIMIT or not is_prime(p):
            raise ConfigError(f"config key 'primes' must list primes, got {p!r}")
    return primes


def _ring_from_config(cfg: dict, key: str = "ring") -> BaseRing:
    tag = _need(cfg, key, str)
    try:
        return ring_from_tag(tag)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _field_from_config(cfg: dict) -> BaseRing:
    ring = _ring_from_config(cfg, "field")
    if not ring.is_field():
        raise ConfigError(f"config key 'field' must name a field, got {ring.tag()}")
    return ring


def _varset_from_config(cfg: dict) -> VarSet:
    names = _need(cfg, "variables", list)
    if not names or not all(isinstance(n, str) for n in names):
        raise ConfigError("config key 'variables' must be a nonempty list of names")
    if len(set(names)) != len(names):
        raise ConfigError("config key 'variables' must not repeat a name")
    weights = _opt(cfg, "weights", list, None)
    if weights is None:
        return VarSet(tuple(names))
    if len(weights) != len(names) or not all(
            _is_int(w) and w >= 1 for w in weights):
        raise ConfigError("config key 'weights' must list positive integers, "
                          "one per variable")
    return VarSet(tuple(names), tuple(weights))


def _polys_from_config(texts: list, key: str, ring: BaseRing,
                       vs: VarSet) -> List[MultiPoly]:
    if not all(isinstance(t, str) for t in texts):
        raise ConfigError(f"config key {key!r} must list polynomial strings")
    try:  # one work budget for all the texts
        read = parse_polys(ring, vs)
        return [read(t) for t in texts]
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _module_from_config(cfg: dict, ring: BaseRing) -> FPModule:
    mod = _need(cfg, "module", dict)
    _check_keys(mod, ("ngens", "relations"), "module")
    ngens = _need(mod, "ngens", int, "module")
    if ngens < 1:
        raise ConfigError("module key 'ngens' must be >= 1")
    relations = _opt(mod, "relations", list, [], "module")
    read = parse_polys(ring, VarSet(()))  # one work budget for all the rows
    rows = []
    for row in relations:
        if not isinstance(row, list) or len(row) != ngens:
            raise ConfigError(f"module key 'relations': row {row!r} must have "
                              f"{ngens} entries")
        rows.append(tuple(_scalar_from_config(x, ring, read) for x in row))
    return FPModule(ring, ngens, tuple(rows))


def _scalar_from_config(x, ring: BaseRing, read):
    if not (_is_int(x) or isinstance(x, str)):
        raise ConfigError(f"bad scalar {x!r}: expected int or string")
    try:
        if _is_int(x):
            return ring.coerce(x)
        return read(x).terms.get((), ring.zero())
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad scalar {x!r}: {exc}") from None


TRANSFORMATION_SHORTCUTS = {
    "cube-sum": geometry.cube_sum,
    "four-squares": geometry.four_squares,
}


def _transformation_from_config(cfg: dict) -> PolyTransformation:
    tr = _need(cfg, "transformation", (str, dict))
    if isinstance(tr, str):
        if tr not in TRANSFORMATION_SHORTCUTS:
            raise ConfigError(
                f"config key 'transformation': unknown template {tr!r}; "
                f"known: {sorted(TRANSFORMATION_SHORTCUTS)}")
        return TRANSFORMATION_SHORTCUTS[tr]
    _check_keys(tr, ("template", "num_forms", "power", "form_degree"),
                "transformation")
    template = _need(tr, "template", str, "transformation")
    if template != "sum-of-powers":
        raise ConfigError(f"transformation key 'template': unknown value "
                          f"{template!r}; known: ['sum-of-powers']")
    num_forms = _need(tr, "num_forms", int, "transformation")
    power = _need(tr, "power", int, "transformation")
    form_degree = _opt(tr, "form_degree", int, 1, "transformation")
    if num_forms < 1 or power < 1 or form_degree < 1:
        raise ConfigError("transformation sizes must be >= 1")
    return sum_of_powers(num_forms, power, form_degree)


def _transformation_and_rank(cfg: dict) -> Tuple[PolyTransformation, int]:
    alpha = _transformation_from_config(cfg)
    n = _need(cfg, "rank", int)
    if n < 1:
        raise ConfigError("config key 'rank' must be >= 1")
    return alpha, n


# ---------------------------------------------------------------------------
# Groebner basis disk cache


def serialize_basis(gb: GroebnerBasis) -> bytes:
    doc = {
        "version": CACHE_VERSION,
        "ring": gb.ring.tag(),
        "order": gb.order.tag(),
        "names": list(gb.varset.names),
        "weights": list(gb.varset.weights),
        "generators": [format_poly(g) for g in gb.generators],
    }
    return json.dumps(doc, sort_keys=True).encode()


def deserialize_basis(blob: bytes) -> GroebnerBasis:
    doc = json.loads(blob.decode())
    if doc.get("version") != CACHE_VERSION:
        raise ValueError(f"cache version {doc.get('version')!r} != {CACHE_VERSION}")
    ring = ring_from_tag(doc["ring"])
    vs = VarSet(tuple(doc["names"]), tuple(doc["weights"]))
    order = order_from_tag(doc["order"])
    gens = tuple(parse_poly(t, ring, vs) for t in doc["generators"])  # a budget each
    return GroebnerBasis(gens, order, ring, vs)


class GBCache:
    """Content-addressed Groebner basis store under a directory."""

    def __init__(self, directory: str):
        self.directory = directory

    @staticmethod
    def key(generator_texts: Sequence[str], order_tag: str, ring_tag: str) -> str:
        h = hashlib.sha256()
        h.update(CACHE_VERSION.encode())
        h.update(b"\x00" + order_tag.encode())
        h.update(b"\x00" + ring_tag.encode())
        for t in generator_texts:
            h.update(b"\x00" + t.encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"gb-{key}.json")

    def lookup(self, key: str) -> Optional[GroebnerBasis]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                return deserialize_basis(fh.read())
        except (ValueError, KeyError, TypeError, AttributeError, OSError,
                ArithmeticError, SizeGuardExceeded) as exc:
            # TypeError and AttributeError: valid JSON of the wrong shape
            print(f"warning: ignoring corrupt cache entry {path}: {exc}",
                  file=sys.stderr)
            return None

    def store(self, key: str, gb: GroebnerBasis):
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(serialize_basis(gb))
        os.replace(tmp, path)


def _cached_image_closure(alpha: PolyTransformation, n: int, ring: BaseRing,
                          cache: Optional[GBCache]) -> ClosedSubsetAtRank:
    if cache is None:
        return image_closure(alpha, n, ring)
    expansion = geometry._expansion(alpha, n, ring)
    src_vs, coords, vs = expansion
    graph_texts = [f"y{i + 1} - ({format_poly(c)})"
                   for i, c in enumerate(coords)]
    key = GBCache.key(graph_texts, f"elim({len(src_vs)})", ring.tag())
    hit = cache.lookup(key)
    if hit is not None:
        if hit.ring == ring and hit.order == Grevlex() and hit.varset == vs:
            geometry.check_basis(len(hit.generators))
            return ClosedSubsetAtRank(alpha.target, n, ring, vs,
                                      hit.generators, hit)
        print(f"warning: ignoring mismatched cache entry {cache._path(key)}: "
              f"holds a {hit.order.tag()} basis over {hit.ring.tag()}, not a "
              f"grevlex basis over {ring.tag()} in the target variables",
              file=sys.stderr)
    subset = geometry._closure(alpha, n, ring, expansion)
    cache.store(key, subset.gb)
    return subset


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (json_doc, text_lines, csv_spec) where
# csv_spec is None or (header, rows); lines and rows may be iterators, which
# only the format that is written consumes.


def _cmd_ring_of_module(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("ring", "module", "degrees", "max_degree"))
    ring = _ring_from_config(cfg)
    module = _module_from_config(cfg, ring)
    if "degrees" in cfg:
        degrees = _need(cfg, "degrees", list)
        if not all(_is_int(d) and d >= 0 for d in degrees):
            raise ConfigError("config key 'degrees' must list integers >= 0")
    elif "max_degree" in cfg:
        top = _need(cfg, "max_degree", int)
        if top < 0:
            raise ConfigError("config key 'max_degree' must be >= 0")
        degrees = list(range(top + 1))
    else:
        raise ConfigError("missing config key 'degrees' (or 'max_degree')")
    top = max(degrees, default=0)
    if top > MAX_DEGREE:
        raise SizeGuardExceeded("degree exceeds the size guard",
                                degree=top, limit=MAX_DEGREE)
    check_system_size(module, degrees)

    lines = [f"coordinate ring of a module over {ring.tag()}, "
             f"{module.ngens} generator(s), {len(module.relations)} relation(s)",
             "degree  dimension  spanning set"]
    pieces = {}  # one piece per degree, however often it is listed
    for d in sorted(set(degrees)):
        piece = graded_piece(module, d)
        pieces[d] = {"degree": d, "dimension": piece.dimension,
                     "basis": [format_poly(b) for b in piece.basis]}
    rows = [pieces[d] for d in sorted(degrees)]
    lines.extend(f"{r['degree']:>6}  {r['dimension']:>9}  {', '.join(r['basis']) or '0'}"
                 for r in rows)
    doc = {"command": "ring-of-module", "ring": ring.tag(),
           "ngens": module.ngens, "pieces": rows}
    csv_spec = (("degree", "dimension", "basis_size"),
                [(r["degree"], r["dimension"], len(r["basis"])) for r in rows])
    return doc, lines, csv_spec


def _cmd_schur_table(cfg: dict, args) -> tuple:
    from .schur import SchurAlgebra
    _check_keys(cfg, ("n", "d", "ring"))
    n = _need(cfg, "n", int)
    d = _need(cfg, "d", int)
    if n < 1 or d < 0:
        raise ConfigError("config key 'n' must be >= 1 and 'd' >= 0")
    if d > MAX_DEGREE:
        raise SizeGuardExceeded("degree exceeds the size guard",
                                degree=d, limit=MAX_DEGREE)
    # each term of each z^gamma is a product of |gamma| <= d of the n^3
    # terms x_ij y_jl, so the table has at most C(n^3 + d, d) entries, each
    # with indices of n^2 exponents; the n^2 products z_il, built before d is
    # read, hold n^3 terms of 2n^2 exponents
    size = comb(n ** 3 + d, d) * n * n + 2 * n ** 5
    if size > SCHUR_TABLE_LIMIT:
        raise SizeGuardExceeded("Schur algebra table exceeds the size guard",
                                table_size=size, limit=SCHUR_TABLE_LIMIT)
    ring = _ring_from_config(cfg) if "ring" in cfg else ZZ
    algebra = SchurAlgebra(n, d, ring)
    triples = [(a, b, g, ring.fmt(c))
               for a, b, g, c in algebra.structure_constants()]
    lines = chain([f"structure constants of S_<={d}(U), dim U = {n}, "
                   f"over {ring.tag()} ({algebra.dimension()} basis elements)"],
                  (f"({a}, {b}, {g}) -> {c}" for a, b, g, c in triples))
    doc = {"command": "schur-table", "n": n, "d": d, "ring": ring.tag(),
           "dimension": algebra.dimension(),
           "triples": [{"alpha": a, "beta": b, "gamma": g, "c": c}
                       for a, b, g, c in triples]}
    csv_spec = (("alpha", "beta", "gamma", "c"),
                ((" ".join(map(str, a)), " ".join(map(str, b)),
                  " ".join(map(str, g)), c) for a, b, g, c in triples))
    return doc, lines, csv_spec


def _cmd_dimfn(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("functor", "primes", "window"))
    text = _need(cfg, "functor", str)
    try:
        expr = parse_functor(text)
    except ValueError as exc:
        raise ConfigError(f"config key 'functor': {exc}") from None
    primes = _prime_list(cfg)
    window = _need(cfg, "window", int)
    if expr.degree() > MAX_DEGREE:
        raise SizeGuardExceeded("functor degree exceeds the size guard",
                                degree=expr.degree(), limit=MAX_DEGREE)
    try:
        size = rank_at(expr, max(window, 0))
        if size > DIMFN_RANK_LIMIT:
            raise SizeGuardExceeded("functor rank at the window exceeds the size guard",
                                    rank=size, limit=DIMFN_RANK_LIMIT)
        if window > DIMFN_WINDOW_LIMIT:
            raise SizeGuardExceeded("dimfn window exceeds the size guard",
                                    window=window, limit=DIMFN_WINDOW_LIMIT)
        report = dimension_function(expr, primes, window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [f"dimension function of {expr}, window 0..{window}"]
    header = "prime  " + "  ".join(f"n={n}" for n in range(window + 1))
    lines.append(header)
    for p in sorted(report.table):
        label = "QQ" if p == 0 else f"F{p}"
        vals = "  ".join(f"{v:>{len(f'n={i}')}}" for i, v in
                         enumerate(report.table[p]))
        lines.append(f"{label:>5}  {vals}")
    for p in sorted(report.coefficients):
        label = "QQ" if p == 0 else f"F{p}"
        lines.append(f"binomial coefficients over {label}: "
                     f"{list(report.coefficients[p])}")
    lines.append(f"jumping primes: {list(report.jumping_primes)}")
    doc = {"command": "dimfn", "functor": str(expr), "window": window,
           "table": {str(p): list(v) for p, v in report.table.items()},
           "coefficients": {str(p): list(v)
                            for p, v in report.coefficients.items()},
           "jumping_primes": list(report.jumping_primes)}
    csv_spec = (("prime", "rank", "dimension"),
                [(p, n, v) for p in sorted(report.table)
                 for n, v in enumerate(report.table[p])])
    return doc, lines, csv_spec


def _cmd_image_closure(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("transformation", "rank", "field"))
    alpha, n = _transformation_and_rank(cfg)
    ring = _field_from_config(cfg)
    subset = _cached_image_closure(alpha, n, ring, args.cache)
    dim = ideal_dimension(subset.gb)
    lines = [f"image closure of {alpha.name} at rank {n} over {ring.tag()}",
             f"ideal generators ({len(subset.generators)}):"]
    lines.extend(f"  {format_poly(g)}" for g in subset.generators)
    lines.append(f"dimension: {dim}")
    doc = {"command": "image-closure", "transformation": alpha.name,
           "rank": n, "field": ring.tag(), "dimension": dim,
           "generators": [format_poly(g) for g in subset.generators]}
    csv_spec = (("prime", "dimension", "basis_size", "time_ms"),
                [(ring.characteristic(), dim, len(subset.gb.generators),
                  args.elapsed_ms())])
    return doc, lines, csv_spec


def _cmd_dim_per_prime(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("transformation", "rank", "primes"))
    alpha, n = _transformation_and_rank(cfg)
    primes = _prime_list(cfg)

    def one(p: int):
        ring = fraction_field_reduction(p)
        t0 = time.perf_counter()
        subset = _cached_image_closure(alpha, n, ring, args.cache)
        ms = int((time.perf_counter() - t0) * 1000)
        return p, ideal_dimension(subset.gb), len(subset.gb.generators), ms

    results = [one(p) for p in dict.fromkeys([0, *primes])]
    lines = [f"dimension of the image closure of {alpha.name} at rank {n}",
             "field  dimension"]
    for p, dim, _, _ in results:
        label = "QQ" if p == 0 else f"F{p}"
        lines.append(f"{label:>5}  {dim:>9}")
    doc = {"command": "dim-per-prime", "transformation": alpha.name, "rank": n,
           "dimensions": {str(p): dim for p, dim, _, _ in results}}
    csv_spec = (("prime", "dimension", "basis_size", "time_ms"),
                [(p, dim, sz, ms) for p, dim, sz, ms in results])
    return doc, lines, csv_spec


def _cmd_good_primes(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("variables", "weights", "generators", "primes"))
    vs = _varset_from_config(cfg)
    if len(vs) > MAX_VARIABLES:
        raise SizeGuardExceeded("too many variables",
                                variables=len(vs), limit=MAX_VARIABLES)
    gens = _polys_from_config(_need(cfg, "generators", list), "generators",
                              ZZ, vs)
    primes = _prime_list(cfg)
    t0 = time.perf_counter()
    try:
        report = good_primes(gens, primes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ms = int((time.perf_counter() - t0) * 1000)
    lines = [f"prime specialization of the ideal "
             f"<{', '.join(format_poly(g) for g in gens)}>",
             f"generic basis over QQ ({len(report.generic_basis)} elements), "
             f"dimension {report.generic_dimension}, r = {report.r}"]
    for v in report.verdicts:
        status = "good" if v.good else "BAD"
        how = "recomputed" if v.recomputed else "verified by specialization"
        lines.append(f"p={v.prime}: {status} (dimension {v.dimension}, {how})")
    doc = {"command": "good-primes", "r": report.r,
           "generic_dimension": report.generic_dimension,
           "generic_basis": [format_poly(g) for g in report.generic_basis],
           "verdicts": [{"prime": v.prime, "good": v.good,
                         "dimension": v.dimension,
                         "recomputed": v.recomputed} for v in report.verdicts]}
    csv_spec = (("prime", "dimension", "basis_size", "time_ms"),
                [(v.prime, v.dimension, len(report.generic_basis), ms)
                 for v in report.verdicts])
    return doc, lines, csv_spec


def _cmd_equivariance(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("transformation", "rank", "field"))
    alpha, n = _transformation_and_rank(cfg)
    ring = _field_from_config(cfg)
    subset = _cached_image_closure(alpha, n, ring, args.cache)
    ok = equivariance_check(subset)
    verdict = "PASS" if ok else "FAIL"
    lines = [f"equivariance of the image closure of {alpha.name} at rank {n} "
             f"over {ring.tag()}",
             f"checked on generators: {verdict}"]
    doc = {"command": "equivariance", "transformation": alpha.name, "rank": n,
           "field": ring.tag(), "equivariant_on_generators": ok}

    def rows():
        # only the csv output prints the dimension
        yield (ring.characteristic(), ideal_dimension(subset.gb),
               len(subset.gb.generators), args.elapsed_ms())

    csv_spec = (("prime", "dimension", "basis_size", "time_ms"), rows())
    return doc, lines, csv_spec


def _cmd_taylor(cfg: dict, args) -> tuple:
    _check_keys(cfg, ("variables", "weights", "polynomial", "direction_count",
                      "field"))
    vs = _varset_from_config(cfg)
    ring = _field_from_config(cfg) if "field" in cfg else \
        fraction_field_reduction(0)
    [f] = _polys_from_config([_need(cfg, "polynomial", str)], "polynomial",
                             ring, vs)
    m = _need(cfg, "direction_count", int)
    if not 1 <= m <= len(vs):
        raise ConfigError("config key 'direction_count' must lie in "
                          f"1..{len(vs)}")
    p = ring.characteristic()
    try:
        e, hs = geometry.taylor_directional(f, m, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    q = p ** e if p else 1
    lines = [f"directional expansion of {format_poly(f)} over {ring.tag()} "
             f"in the first {m} variable(s)",
             f"lowest order: t^{q}" + (f" = t^({p}^{e})" if p else ""),
             "coefficients h_i with sum h_i * y_i^q:"]
    lines.extend(f"  h_{i + 1} = {format_poly(h)}" for i, h in enumerate(hs))
    doc = {"command": "taylor", "polynomial": format_poly(f),
           "field": ring.tag(), "e": e, "q": q,
           "h": [format_poly(h) for h in hs]}
    return doc, lines, None


HANDLERS = {
    "ring-of-module": _cmd_ring_of_module,
    "schur-table": _cmd_schur_table,
    "dimfn": _cmd_dimfn,
    "image-closure": _cmd_image_closure,
    "dim-per-prime": _cmd_dim_per_prime,
    "good-primes": _cmd_good_primes,
    "equivariance": _cmd_equivariance,
    "taylor": _cmd_taylor,
}


# ---------------------------------------------------------------------------
# Rendering and entry point


def _render_csv(csv_spec) -> str:
    header, rows = csv_spec
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _emit(args, doc: dict, lines: Iterable[str], csv_spec):
    if args.format == "json":
        primary = render_json(doc) + "\n"
        ext = "json"
    elif args.format == "csv":
        if csv_spec is None:
            raise ConfigError(f"command {doc['command']!r} has no csv output")
        primary = _render_csv(csv_spec)
        ext = "csv"
    else:
        primary = "\n".join(lines) + "\n"
        ext = "txt"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, doc["command"])
        with open(f"{base}.{ext}", "w") as fh:
            fh.write(primary)
        if csv_spec is not None and ext != "csv":
            with open(f"{base}.csv", "w") as fh:
                fh.write(_render_csv(csv_spec))
    else:
        sys.stdout.write(primary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcalc",
        description="Exact computations with coordinate rings of modules, "
                    "Schur algebras, polynomial functors, and closed subsets "
                    "of functor spaces at finite rank.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="JSON job config file")
    parser.add_argument("--out", default=None,
                        help="directory for output files (default: stdout)")
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")
    parser.add_argument("--cache-dir", default=None,
                        help="Groebner basis cache directory "
                             "(default: $PFCALC_CACHE_DIR)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.set_int_max_str_digits(INT_DIGIT_LIMIT)
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("PFCALC_CACHE_DIR")
    args.cache = GBCache(cache_dir) if cache_dir else None
    start = time.perf_counter()
    args.elapsed_ms = lambda: int((time.perf_counter() - start) * 1000)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # an integer literal above INT_DIGIT_LIMIT digits too
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2
    try:
        doc, lines, csv_spec = HANDLERS[args.command](cfg, args)
        _emit(args, doc, lines, csv_spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print("refused: printed integer exceeds the size guard; measured "
              f"limit={INT_DIGIT_LIMIT}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
