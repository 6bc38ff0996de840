"""HASH001 — spec-hash coverage: every dataclass field must be ledgered.

``spec_key`` (:mod:`repro.sim.runner`) canonicalises a :class:`RunSpec`
recursively and hashes every field.  Any field of the hashed dataclasses
is therefore *part of the cache key* — which means adding a field
silently changes every existing key (mass cache invalidation at best; at
worst a golden spec-key drift nobody noticed).  The repo's discipline
is: a new field is added to the rule's ``baseline`` ledger in
``repro-lint.toml`` alongside a golden spec-key regeneration.  How a
spec executes (the engine) is an argument of the executor, never a
field.

HASH001 makes that discipline a lint error instead of a code-review
hope: it parses each configured dataclass's field list out of the AST
and reports any field missing from the ledger — plus stale ledger
entries naming fields that no longer exist.
"""

from __future__ import annotations

import ast

from repro.errors import ConfigurationError
from repro.lint.framework import Project, ProjectRule, SourceFile, register

__all__ = ["SpecHashCoverage"]


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
    """HASH001: cross-reference dataclass fields against the hash ledger."""

    code = "HASH001"
    description = (
        "spec-hash coverage: every field of the hashed dataclasses must "
        "be deliberately listed in the hashed baseline ledger of "
        "repro-lint.toml"
    )
    default_enabled = False

    def check(self, project: Project) -> None:
        """Run the coverage cross-reference over the configured dataclasses."""
        dataclasses = self.options.get("dataclasses", {})
        if not dataclasses:
            raise ConfigurationError(
                "HASH001 needs a [lint.rules.HASH001.dataclasses.<Name>] "
                "table per hashed dataclass"
            )
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
            for name in sorted(set(fields) - baseline):
                project.report(
                    self.code, class_src.rel, fields[name],
                    f"{class_name}.{name} enters spec_key implicitly: a new "
                    "field changes every published cache key — add it to "
                    "the HASH001 baseline ledger in repro-lint.toml and "
                    "regenerate the golden spec keys; how a run executes "
                    "belongs to the executor, not the spec",
                )
            for name in sorted(baseline - set(fields)):
                project.report(
                    self.code, class_src.rel, class_line,
                    f"stale HASH001 baseline entry: {class_name}.{name} no "
                    "longer exists; prune the ledger in repro-lint.toml",
                )
