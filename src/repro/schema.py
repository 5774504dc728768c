"""Declared, versioned JSON documents.

Every schema-versioned document the reproduction writes (explain and
hot-path reports, telemetry headers, diff / critical-path / what-if /
fleet reports, flight-recorder manifests, SLO specs, lint reports and
the lint baseline) is declared once as a module-level :class:`Schema`.
Writers build every field and call :meth:`Schema.stamp`; readers call
:meth:`Schema.load`.  Both check the same declared field set, so a
writer and its reader cannot drift apart.  Lint rule R007 flags any
``schema_version`` stamped by hand outside this module.

Field names starting with ``_`` are private carry-alongs (live report
objects handed to renderers); neither side checks them.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["Schema", "write_json"]

_VERSION_KEY = "schema_version"


class Schema:
    """One versioned document: name, version and its public fields."""

    def __init__(self, name: str, version: int, required, optional=()) -> None:
        self.name = name
        self.version = version
        self.required = frozenset(required)
        self.optional = frozenset(optional)
        #: every public field a document of this kind may carry
        self.fields = self.required | self.optional

    def _check(self, keys) -> None:
        public = {key for key in keys if not key.startswith("_")}
        missing = self.required - public
        if missing:
            raise ValueError(f"{self.name} is missing fields: {sorted(missing)}")
        unknown = public - self.fields
        if unknown:
            raise ValueError(
                f"{self.name} has undeclared fields: {sorted(unknown)}"
            )

    def stamp(self, **fields) -> dict:
        """The document: ``schema_version`` first, then ``fields`` in order."""
        self._check(fields)
        return {_VERSION_KEY: self.version, **fields}

    def load(self, doc) -> dict:
        """Validate a parsed document; returns it unchanged."""
        if not isinstance(doc, dict):
            raise ValueError(f"{self.name} must be a JSON object")
        version = doc.get(_VERSION_KEY)
        if version != self.version:
            raise ValueError(
                f"{self.name} has schema_version {version!r}; this tool "
                f"reads version {self.version}"
            )
        self._check(doc.keys() - {_VERSION_KEY})
        return doc


def write_json(doc, path) -> Path:
    """Write ``doc`` deterministically (indent 2, sorted keys, newline).

    Parent directories are created; returns the written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
