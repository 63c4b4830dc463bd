"""The json text of a command's output, as `json.dumps(doc, indent=2,
sort_keys=True)` writes it.  json's C encoder does not indent, and its
pure-Python one, which does, is most of a large schur-table job.

Most of a large output is records: dicts whose values are all scalars, empty
containers or flat arrays of scalars (a schur-table triple, a ring-of-module
piece).  A record is filled into its shape: its sorted keys as quoted heads
('{\n<indent>"key": ' for the first, ',\n<indent>"key": ' for the rest) and
its closing brace, built once per call for each indent and key tuple in
insertion order.  An all-int array is rendered once per call for each indent
and values.  Every other value is written recursively.  Tuples are written
as lists, and int, float, bool and None keys as strings, as json writes
them; the shape of a record with such keys is not cached, since 1, 1.0 and
True are one dict key but three texts.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import countOf, itemgetter


def _key(k) -> str:
    """The quoted text of the dict key k, converted as json converts it."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):  # bools are ints
        return _quote(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def render_json(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), in one pass: the pieces go
    to one list, a record is filled into its shape, and an all-int array is
    rendered once per indent and values."""
    out, ints, shapes = [], {}, {}

    def array(x, pad):
        """The text of the nonempty array x at indent pad, or None when an
        element is a container."""
        inner = pad + "  "
        if countOf(map(type, x), int) == len(x):
            known = ints.setdefault(pad, {})
            key = x if type(x) is tuple else tuple(x)
            if key not in known:
                known[key] = "[\n" + inner + (",\n" + inner).join(
                    map(str, x)) + "\n" + pad + "]"
            return known[key]
        if any(isinstance(v, (dict, list, tuple)) for v in x):
            return None
        return "[\n" + inner + (",\n" + inner).join(
            _quote(v) if type(v) is str else json.dumps(v) for v in x) \
            + "\n" + pad + "]"

    def shape(x, pad):
        """The getter of the values of x in key order, their heads, the
        closing brace, and the pad and all-int texts of those values;
        cached in shapes when every key is a str."""
        order = sorted(x)
        inner = pad + "  "
        heads = ["{\n" + inner + _key(order[0]) + ": "]
        heads += [",\n" + inner + _key(k) + ": " for k in order[1:]]
        close = "\n" + pad + "}"
        get = itemgetter(*order) if len(order) > 1 else \
            lambda x, k=order[0]: (x[k],)
        made = get, heads, close, inner, ints.setdefault(inner, {})
        if countOf(map(type, order), str) == len(order):
            shapes[(pad, *x)] = made
        return made

    def record(x, pad):
        """Append the text of the nonempty dict x if it is a record, and
        say whether it was."""
        get, heads, close, inner, known = shapes.get((pad, *x)) or shape(x, pad)
        texts = []
        for v in get(x):
            t = type(v)
            if t is str:
                text = _quote(v)
            elif t is tuple and v and countOf(map(type, v), int) == len(v):
                text = known.get(v) or array(v, inner)
            elif t is tuple or t is list:
                text = array(v, inner) if v else "[]"
                if text is None:
                    return False
            elif t is int:
                text = str(v)
            elif t is dict and not v:
                text = "{}"
            elif v is None or t is bool or t is float:
                text = json.dumps(v)
            else:
                return False
            texts.append(text)
        out.extend(chain.from_iterable(zip(heads, texts)))
        out.append(close)
        return True

    def put(x, pad):
        if not x or not isinstance(x, (dict, list, tuple)):
            out.append(_quote(x) if type(x) is str else json.dumps(x))
            return
        inner = pad + "  "
        if isinstance(x, dict):
            if type(x) is dict and record(x, pad):
                return
            items, ends = [(_key(k) + ": ", x[k]) for k in sorted(x)], "{}"
        else:
            text = array(x, pad)
            if text is not None:
                out.append(text)
                return
            items, ends = [("", v) for v in x], "[]"
        sep = ends[0] + "\n" + inner
        for head, v in items:
            out.append(sep + head)
            put(v, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + ends[1])

    put(doc, "")
    return "".join(out)
