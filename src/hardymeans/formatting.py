"""Deterministic text for the CLI, the specifiers and trace serializers.

Reals print with 17 significant digits (enough to round-trip a double
bit for bit) and infinities print as the bare literal ``inf`` / ``-inf``
in both JSON and CSV output; strict JSON parsers need a pre-pass for
those two tokens.  Specifier arguments read as ``key=value``.
"""

from __future__ import annotations

import json
import math
from numbers import Integral

from .errors import UsageError


def parse_kv(body: str, key: str, conv):
    """The value of a ``key=value`` specifier argument, converted by conv."""
    name, _, val = body.partition("=")
    if name != key or not val:
        raise UsageError(f"expected {key}=<value>, got {body!r}")
    return conv(val)


def fmt_real(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "nan"
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return f"{v:.17g}"


def render_csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of cells, with
    integers (NumPy's too) as integers and reals by :func:`fmt_real`."""
    lines = [header]
    lines.extend(",".join(str(v) if isinstance(v, Integral) else fmt_real(v)
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(obj) -> str:
    """Serialize nested dict/list/str/bool/int/float, insertion-ordered.

    Floats use :func:`fmt_real` (unquoted), so output is byte-stable for
    identical inputs.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {render_json(v)}"
                 for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__}")
