"""The json text of a command's output, as `json.dumps(doc, indent=2,
sort_keys=True)` writes it.  json's C encoder does not indent, and its
pure-Python one, which does, is most of a large schur-table job.
"""

import json
from json.encoder import encode_basestring_ascii as _quote


def render_json(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), in one pass: the pieces go
    to one list, and a flat int list is rendered once per indent level."""
    out, flat = [], {}

    def put(x, pad):
        if not x or not isinstance(x, (dict, list)):
            out.append(_quote(x) if type(x) is str else json.dumps(x))
            return
        inner = pad + "  "
        if isinstance(x, dict):
            items, ends = [(_quote(k) + ": ", x[k]) for k in sorted(x)], "{}"
        elif all(type(v) is int for v in x):
            key = (pad, *x)
            if key not in flat:
                flat[key] = "[\n" + inner + (",\n" + inner).join(map(str, x)) \
                    + "\n" + pad + "]"
            out.append(flat[key])
            return
        else:
            items, ends = [("", v) for v in x], "[]"
        sep = ends[0] + "\n" + inner
        for head, v in items:
            out.append(sep + head)
            put(v, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + ends[1])

    put(doc, "")
    return "".join(out)
