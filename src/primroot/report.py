"""Output of every result: one JSON-ready form and one CSV writer.

`as_dict` turns a report dataclass into a JSON-ready dict that starts with
schema_version; `csv_lines` writes rows as CSV; `render` prints any result
as a table, JSON or CSV.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, is_dataclass
from functools import lru_cache

SCHEMA_VERSION = 1


def as_dict(report) -> dict:
    """A dataclass as a JSON-ready dict: schema_version, then each field in order.

    A Fraction becomes a float; a dict keeps its order and has its keys
    turned into strings; a list or tuple becomes a list; a nested Report
    carries its own schema_version, and any other nested dataclass is its
    plain fields.
    """
    return _add_fields({"schema_version": SCHEMA_VERSION}, report)


@lru_cache(maxsize=None)
def _serialized_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_SCALARS = (int, float, bool, str, type(None))


def _add_fields(out: dict, obj) -> dict:
    for name in _serialized_names(type(obj)):
        value = getattr(obj, name)
        # scalars pass unchanged; testing them first keeps a 1e3-row survey cheap
        out[name] = value if type(value) in _SCALARS else _json_ready(value)
    return out


def _json_ready(value):
    if isinstance(value, Report):
        return as_dict(value)
    if is_dataclass(value):
        return _add_fields({}, value)
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    # no value is a Fraction before fractions is loaded, so this module never loads it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return float(value)
    return value


class Report:
    """Base of the report dataclasses: as_dict gives each one its schema_version."""


def csv_lines(rows, columns) -> list[str]:
    """A schema_version,<columns> header, then one line per row of cell values.

    Bools are written 0/1; every other cell, floats included, with str.
    """
    lines = [",".join(("schema_version", *columns))]
    version = f"{SCHEMA_VERSION},"
    for row in rows:
        lines.append(version + ",".join([str(int(c) if isinstance(c, bool) else c) for c in row]))
    return lines


def render(result, fmt: str, csv: dict[str, tuple[str, ...]] | None, table_key: str | None) -> str:
    """A report dataclass, or a dict of fields, as "table", "json" or "csv" text.

    A dict result gets schema_version prepended and each value made
    JSON-ready as a report field is.  csv maps a list in the payload to the
    columns its items are written with; a payload holding none of those
    lists is written as one CSV row of its scalar values.  table_key names
    the one payload value the table format prints, if it prints only one.
    """
    if isinstance(result, dict):
        payload = {"schema_version": SCHEMA_VERSION, **_json_ready(result)}
    else:
        payload = as_dict(result)
    if fmt == "json":
        return json.dumps(payload)
    if fmt == "csv":
        for key, columns in (csv or {}).items():
            if key in payload:
                # items are dicts, or bare values for a one-column list (lift enumerate's roots)
                rows = ([r[c] for c in columns] if isinstance(r, dict) else [r] for r in payload[key])
                return "\n".join(csv_lines(rows, columns))
        keys = [k for k, v in payload.items() if k != "schema_version" and not isinstance(v, (list, dict))]
        return "\n".join(csv_lines([[payload[k] for k in keys]], keys))
    if table_key:
        return payload[table_key]
    lines = []
    for k, v in payload.items():
        if k == "schema_version":
            continue
        if isinstance(v, list):
            lines.append(f"{k}:")
            lines.extend(f"  {item}" for item in v)
        else:
            lines.append(f"{k} = {v}")
    return "\n".join(lines)
