"""HASH001 — spec-hash coverage: every dataclass field must be ledgered.

``spec_key`` (:mod:`repro.sim.runner`) canonicalises a :class:`RunSpec`
recursively.  Any field of the hashed dataclasses is therefore *part of
the cache key by default* — which means adding a field silently changes
every existing key (mass cache invalidation at best; at worst a golden
spec-key drift nobody noticed).  The repo's discipline is: a new field
is either

* **execution-only** — listed in ``_EXECUTION_FIELDS`` and excluded from
  the key (engine selection), or
* **deliberately hashed** — added to the rule's ``baseline`` ledger in
  ``repro-lint.toml`` alongside a golden spec-key regeneration.

HASH001 makes that discipline a lint error instead of a code-review
hope: it parses the execution table out of the spec module's AST, parses
each configured dataclass's field list, and reports any field that is in
neither ledger — plus stale ledger entries naming fields that no longer
exist.
"""

from __future__ import annotations

import ast

from repro.errors import ConfigurationError
from repro.lint.framework import Project, ProjectRule, SourceFile, register

__all__ = ["SpecHashCoverage"]


def _table_keys(src: SourceFile, table_name: str) -> tuple[dict[str, set[str]], int]:
    """Extract ``{class name: {field, ...}}`` from a literal dict assignment.

    Values may be ``frozenset({...})`` calls over string constants, or
    set, list or tuple literals.
    """
    for node in src.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not (isinstance(target, ast.Name) and target.id == table_name):
            continue
        if not isinstance(value, ast.Dict):
            raise ConfigurationError(
                f"{src.rel}: {table_name} must be a literal dict for the "
                "spec-hash coverage check to read it"
            )
        table: dict[str, set[str]] = {}
        for key_node, value_node in zip(value.keys, value.values):
            if not (isinstance(key_node, ast.Constant)
                    and isinstance(key_node.value, str)):
                raise ConfigurationError(
                    f"{src.rel}:{key_node.lineno if key_node else node.lineno}: "
                    f"{table_name} keys must be string literals"
                )
            table[key_node.value] = _field_names(src, table_name, value_node)
        return table, node.lineno
    raise ConfigurationError(
        f"{src.rel}: spec-hash coverage check cannot find {table_name!r}"
    )


def _field_names(src: SourceFile, table_name: str, node: ast.expr) -> set[str]:
    """Field names from a ``frozenset({...})`` call or a literal collection."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set")
        and len(node.args) == 1
        and isinstance(node.args[0], (ast.Set, ast.List, ast.Tuple))
    ):
        elements = node.args[0].elts
    elif isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        elements = node.elts
    else:
        raise ConfigurationError(
            f"{src.rel}:{node.lineno}: {table_name} values must be "
            "frozenset({...}) calls or literal collections"
        )
    names: set[str] = set()
    for element in elements:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            raise ConfigurationError(
                f"{src.rel}:{node.lineno}: {table_name} field names must be "
                "string literals"
            )
        names.add(element.value)
    return names


def _dataclass_fields(src: SourceFile, class_name: str) -> tuple[
    dict[str, int], int
] | None:
    """``{field: line}`` of a dataclass body, plus the class line."""
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields: dict[str, int] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    annotation = stmt.annotation
                    if (
                        isinstance(annotation, ast.Subscript)
                        and isinstance(annotation.value, ast.Name)
                        and annotation.value.id == "ClassVar"
                    ):
                        continue
                    fields[stmt.target.id] = stmt.lineno
            return fields, node.lineno
    return None


@register
class SpecHashCoverage(ProjectRule):
    """HASH001: cross-reference dataclass fields against the hash ledgers."""

    code = "HASH001"
    description = (
        "spec-hash coverage: every field of the hashed dataclasses must "
        "be execution-only (_EXECUTION_FIELDS) or deliberately listed in "
        "the hashed baseline ledger of repro-lint.toml"
    )
    default_enabled = False

    def check(self, project: Project) -> None:
        """Run the coverage cross-reference over the configured dataclasses."""
        module = self.options.get("module")
        dataclasses = self.options.get("dataclasses", {})
        if not module or not dataclasses:
            raise ConfigurationError(
                "HASH001 needs 'module' (the spec module holding the "
                "execution table) and a [lint.rules.HASH001.dataclasses.<Name>] table "
                "per hashed dataclass"
            )
        spec_src = project.get_file(module)
        execution_name = self.options.get("execution_table", "_EXECUTION_FIELDS")
        execution, execution_line = _table_keys(spec_src, execution_name)

        for class_name in sorted(dataclasses):
            entry = dataclasses[class_name]
            baseline = set(entry.get("baseline", ()))
            class_src = project.get_file(entry["module"])
            located = _dataclass_fields(class_src, class_name)
            if located is None:
                project.report(
                    self.code, class_src.rel, 1,
                    f"configured hashed dataclass {class_name!r} not found "
                    f"in {class_src.rel}; fix the repro-lint.toml entry",
                )
                continue
            fields, class_line = located
            covered = baseline | set(execution.get(class_name, ()))
            for name in sorted(set(fields) - covered):
                project.report(
                    self.code, class_src.rel, fields[name],
                    f"{class_name}.{name} enters spec_key implicitly: a new "
                    "field changes every published cache key — add it to "
                    "the HASH001 baseline ledger in repro-lint.toml and "
                    "regenerate the golden spec keys, or, if it only says "
                    f"how a run executes, to {execution_name} in "
                    f"{spec_src.rel}",
                )
            for name in sorted(baseline - set(fields)):
                project.report(
                    self.code, class_src.rel, class_line,
                    f"stale HASH001 baseline entry: {class_name}.{name} no "
                    "longer exists; prune the ledger in repro-lint.toml",
                )
            for name in sorted(set(execution.get(class_name, ())) - set(fields)):
                project.report(
                    self.code, spec_src.rel, execution_line,
                    f"stale {execution_name} entry: {class_name}.{name} no "
                    "longer exists on the dataclass",
                )
