"""Deterministic text artifacts: canonical JSON and profile CSVs.

Every float is rendered with 17 significant digits so artifacts are
byte-identical across runs and machines; non-finite values appear as the
strings "inf", "-inf", "nan" (JSON has no literals for them).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = ["fmt_float", "json_dumps", "profile_csv", "growth_csv", "write_text"]


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def _dump(obj) -> str:
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isfinite(obj):
            return fmt_float(obj)
        return json.dumps(fmt_float(obj))
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dump(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    return _dump(obj) + "\n"


def profile_csv(profile) -> str:
    """Decay profile rows; local_slope sits on the right endpoint of each
    consecutive positive-omega pair, so the first row's slope is empty."""
    lines = ["r,omega,stderr,local_slope"]
    prev = None
    for e in profile.entries:
        slope = ""
        if prev is not None and prev.omega > 0.0 and e.omega > 0.0:
            num = math.log(prev.omega / e.omega)
            den = math.log(e.r / prev.r)
            slope = fmt_float(num / den)
        lines.append(f"{fmt_float(e.r)},{fmt_float(e.omega)},{fmt_float(e.stderr)},{slope}")
        prev = e
    return "\n".join(lines) + "\n"


def growth_csv(gp) -> str:
    """Growth profile rows (gap, log of the truncated norm, log-log slope); each
    slope is taken from the previous gap, so the first row's slope is empty."""
    lines = ["gap,log_value,slope"]
    for k, (gap, val) in enumerate(zip(gp.gaps, gp.log_values)):
        slope = fmt_float(gp.slopes[k - 1]) if k > 0 else ""
        lines.append(f"{fmt_float(gap)},{fmt_float(val)},{slope}")
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
