"""R007 — versioned documents are stamped through a declared schema.

Every schema-versioned JSON document (explain and profile reports,
telemetry headers, flight-recorder manifests, SLO specs, diff and fleet
reports, lint reports, ...) is declared once as a module-level
:class:`repro.schema.Schema`.  ``Schema.stamp`` writes the
``schema_version`` key and checks the field set; ``Schema.load`` checks
the same version and fields on the way back in.  Writer and reader agree
by construction, so the one way to break the contract is to stamp a
document by hand: its version can drift from the declaration and its
fields are checked by nobody.

R007 flags, in every module except :mod:`repro.schema` itself:

* a dict literal with a constant ``"schema_version"`` key;
* a ``doc["schema_version"] = ...`` store.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import Rule

__all__ = ["SchemaRoundTripRule"]

_SCHEMA_KEY = "schema_version"


def _is_schema_key(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == _SCHEMA_KEY


class SchemaRoundTripRule(Rule):
    """R007: schema_version is written only by ``repro.schema.Schema``."""

    code = "R007"
    summary = (
        "schema_version documents must be stamped through a "
        "repro.schema.Schema declaration, not by hand"
    )

    def check(self, module) -> Iterator:
        if module.module == "repro.schema":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Dict):
                hand_stamped = any(_is_schema_key(key) for key in node.keys)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                hand_stamped = _is_schema_key(node.slice)
            else:
                continue
            if hand_stamped:
                yield self.violation(
                    module,
                    node,
                    "hand-stamped schema_version — declare the document "
                    "once as a repro.schema.Schema and write it through "
                    "Schema.stamp so its version and fields are checked",
                )
