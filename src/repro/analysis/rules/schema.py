"""R007 — schema round-trip contracts for versioned JSON emitters.

Several modules emit documents stamped ``"schema_version": <CONST>``
(explain and profile reports, telemetry headers, flight-recorder
manifests, SLO specs, diff reports, ...).
A stamped writer with no checked reader is write-only versioning: the
version bump that was supposed to protect consumers protects nobody,
and field renames drift silently until a replay bundle fails to load
months later.

R007 enforces, whole-program:

* every dict literal carrying a ``schema_version`` key whose value is a
  resolvable version constant (or literal) must have a **paired reader**
  somewhere in the program — a function that *compares* the same version
  constant against a ``schema_version`` it pulled out of a document;
* the **field sets must agree**: every top-level key the writer emits
  (dict-literal keys plus ``doc["key"] = ...`` stores on the same
  variable; ``_``-prefixed keys are private and exempt) must be named by
  the reader, either as a string constant in its body or through a
  module-level frozenset/tuple of field names it references.

The rule matches writer to reader by the *canonical* version symbol
(``repro.obs.slo.SLO_SCHEMA_VERSION`` however it was imported), so the
reader may live in any module of the program.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import ProgramRule

__all__ = ["SchemaRoundTripRule"]

_SCHEMA_KEY = "schema_version"


class SchemaRoundTripRule(ProgramRule):
    """R007: every schema_version writer has a version-checking reader."""

    code = "R007"
    summary = (
        "schema_version-stamped writers need a paired reader checking the "
        "same version constant, with agreeing field sets"
    )
    applies_to = ()

    # ------------------------------------------------------------------
    def check_program(self, program) -> Iterator:
        writers = []
        readers: dict[str, list[set[str]]] = {}
        for module in sorted(program.modules.values(), key=lambda m: m.name):
            for local_qual in sorted(module.functions):
                fi = module.functions[local_qual]
                if fi.nested:
                    continue
                writers.extend(self._writers_in(program, module, fi))
                for key, fields in self._readers_in(program, module, fi):
                    readers.setdefault(key, []).append(fields)
        for module, node, version_key, fields in writers:
            candidates = readers.get(version_key, [])
            if not candidates:
                yield self.violation(
                    module.source,
                    node,
                    f"schema_version writer has no paired reader: no "
                    f"function in the program compares {version_key} "
                    "against a document's schema_version — add a "
                    "load_/validate_ reader so the version stamp is "
                    "actually enforced",
                )
                continue
            best = max(candidates, key=lambda c: len(fields & c))
            missing = sorted(fields - best)
            if missing:
                yield self.violation(
                    module.source,
                    node,
                    f"schema round-trip field mismatch for {version_key}: "
                    f"the paired reader never references writer fields "
                    f"{missing} — update the reader's required-field set",
                )

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def _writers_in(self, program, module, fi):
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Dict):
                continue
            version_value = None
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == _SCHEMA_KEY
                ):
                    version_value = value
                    break
            if version_value is None:
                continue
            version_key = self._version_key(program, module, version_value)
            if version_key is None:
                continue
            fields = {
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and not key.value.startswith("_")
            }
            fields |= self._augmented_keys(fi, node)
            yield (module, node, version_key, fields)

    def _version_key(self, program, module, value: ast.expr) -> str | None:
        """Identity of the version constant: canonical symbol or literal."""
        from ..program import dotted_name

        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            return f"literal schema_version {value.value}"
        dotted = dotted_name(value)
        if dotted is None:
            return None
        return program.canonical(module, dotted)

    @staticmethod
    def _augmented_keys(fi, dict_node: ast.Dict) -> set[str]:
        """Keys added later via ``doc["key"] = ...`` on the same variable."""
        var: str | None = None
        for node in ast.walk(fi.node):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if node.value is dict_node:
                for target in targets:
                    if isinstance(target, ast.Name):
                        var = target.id
        if var is None:
            return set()
        keys: set[str] = set()
        for node in ast.walk(fi.node):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == var
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
                and not node.slice.value.startswith("_")
            ):
                keys.add(node.slice.value)
        return keys

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def _readers_in(self, program, module, fi):
        """(version key, known field names) for every reader in ``fi``.

        A reader is a function that mentions the ``schema_version`` string
        and compares *something* against a version constant (symbol or int
        literal) inside a Compare node.
        """
        strings = self._string_constants(fi)
        if _SCHEMA_KEY not in strings:
            return
        version_keys: set[str] = set()
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Compare):
                continue
            for side in [node.left, *node.comparators]:
                key = self._compare_side_key(program, module, fi, side)
                if key is not None:
                    version_keys.add(key)
        if not version_keys:
            return
        fields = strings | self._referenced_field_sets(program, module, fi)
        for key in sorted(version_keys):
            yield key, fields

    def _compare_side_key(self, program, module, fi, side: ast.expr) -> str | None:
        from ..program import dotted_name

        if isinstance(side, ast.Constant) and isinstance(side.value, int):
            return f"literal schema_version {side.value}"
        dotted = dotted_name(side)
        if dotted is None:
            return None
        head = dotted.partition(".")[0]
        if head in fi.local_names and head not in module.aliases:
            return None
        canonical = program.canonical(module, dotted)
        if canonical in program.global_index or canonical != dotted:
            return canonical
        return None

    @staticmethod
    def _string_constants(fi) -> set[str]:
        return {
            node.value
            for node in ast.walk(fi.node)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }

    def _referenced_field_sets(self, program, module, fi) -> set[str]:
        """Strings inside module-level container constants the reader uses."""
        out: set[str] = set()
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Name) or not isinstance(
                node.ctx, ast.Load
            ):
                continue
            if node.id in fi.local_names:
                continue
            canonical = program.canonical(module, f"{node.id}")
            info = program.global_index.get(canonical)
            if info is None and node.id in module.globals:
                info = module.globals[node.id]
            if info is None or info.value is None:
                continue
            for child in ast.walk(info.value):
                if isinstance(child, ast.Constant) and isinstance(
                    child.value, str
                ):
                    out.add(child.value)
        return out
