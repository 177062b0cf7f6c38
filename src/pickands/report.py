"""Records, configuration hashes and machine-readable output.

Every result is reported as a record by one rule (``Record.to_dict``): its
dataclass fields, in declaration order, leaving out fields whose value is
None and writing tuples as lists. The CLI adds the same fields to every
record of a run: a hash of the run's configuration (``config_hash``), and
the seed for the commands whose results do not record it themselves. JSON
writes one object per record; CSV writes the record keys as columns, in
the order they first appear, with nested dicts spread into dotted columns
(``inputs.delta``, ``results.exceedance.estimate``). No timestamps:
identical configuration and seed must produce byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from dataclasses import fields

__all__ = ["Record", "config_hash", "parse_config_file", "write_records"]


class Record:
    """Base of the dataclass results that are written as records."""

    def to_dict(self) -> dict:
        """The fields in declaration order, None left out, tuples as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def config_hash(command: str, options: dict) -> str:
    """First 12 hex digits of the SHA-256 of the command and its options, keys sorted."""
    canonical = json.dumps({"command": command, **options}, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, blank lines skipped.

    Values are parsed as JSON scalars when possible (numbers, booleans),
    else kept as strings. The CLI reads them as flags placed before its
    own, so flags given on the line override them.
    """
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                out[key.replace("-", "_")] = json.loads(value)
            except json.JSONDecodeError:
                out[key.replace("-", "_")] = value
    return out


def _json_default(value):
    """Degrade numpy scalars to plain Python for serialization."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def write_records(records: list[dict], out: str | None, fmt: str, stamp: dict | None = None) -> None:
    """Write records as JSON (one array) or CSV to ``out`` (stdout if None),
    each followed by the fields of ``stamp``."""
    records = [rec | (stamp or {}) for rec in records]
    if fmt == "json":
        text = json.dumps(records if len(records) != 1 else records[0], indent=2,
                          sort_keys=True, default=_json_default)
        text += "\n"
    elif fmt == "csv":
        rows = [_flatten(rec) for rec in records]
        keys = list(dict.fromkeys(k for row in rows for k in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in keys})
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _flatten(rec: dict, prefix: str = "") -> dict:
    """Nested dicts spread into dotted keys, such as ``results.exceedance.estimate``."""
    out = {}
    for k, v in rec.items():
        if isinstance(v, dict):
            out |= _flatten(v, f"{prefix}{k}.")
        else:
            out[prefix + k] = v
    return out


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value
