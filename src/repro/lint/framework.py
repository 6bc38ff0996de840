"""Rule framework: findings, suppressions, the walker, and the runner.

The framework runs two kinds of rules:

* :class:`SyntaxRule` — per-file AST rules.  A rule declares interest by
  defining ``visit_<NodeType>`` methods; the framework merges every
  active rule's handlers into **one** AST pass per file (the walker
  maintains an ancestor stack rules can consult for scope questions).
* :class:`ProjectRule` — cross-file rules that run once over the whole
  linted tree (e.g. the spec-hash coverage check, which cross-references
  dataclass definitions against the strip tables in another module).

Findings are suppressed line-by-line with a machine-checked comment::

    hazard()  # repro-lint: disable=DET002 -- wall-clock is reporting-only here

A suppression on its own line covers the next code line.  Suppressions
are themselves enforced: one that matches no finding is reported as
``LINT001`` (unused suppression), so a "load-bearing" comment cannot
silently outlive the constraint it documents.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig

__all__ = [
    "Finding",
    "LintResult",
    "LintRunner",
    "ProjectRule",
    "SourceFile",
    "Suppression",
    "SyntaxRule",
    "all_rule_codes",
    "register",
]

#: Framework-reserved finding codes (not suppressible, not configurable).
UNUSED_SUPPRESSION = "LINT001"
PARSE_ERROR = "LINT002"


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def sort_key(self) -> tuple:
        """Deterministic output ordering: by file, position, then rule."""
        return (self.path, self.line, self.col, self.rule)

    def __str__(self) -> str:
        tag = " [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


@dataclass
class Suppression:
    """A parsed ``# repro-lint: disable=...`` comment."""

    rules: tuple[str, ...]
    line: int
    covers: int
    justification: str | None = None
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        """Whether this suppression covers the finding's line and rule."""
        return finding.line == self.covers and finding.rule in self.rules


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)
_MARKER_RE = re.compile(r"#\s*repro-lint:")


class SourceFile:
    """A parsed Python source file plus its suppression comments."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.tree = ast.parse(text)  # caller handles SyntaxError
        self.suppressions, self.malformed = _parse_suppressions(text)

    @classmethod
    def read(cls, path: Path, rel: str) -> "SourceFile":
        """Load and parse a file from disk."""
        return cls(path, rel, path.read_text(encoding="utf-8"))


def _parse_suppressions(text: str) -> tuple[list[Suppression], list[int]]:
    """Extract suppression comments; returns (suppressions, malformed lines).

    A trailing comment covers its own line; a comment alone on a line
    covers the next line bearing any code token.
    """
    comments: list[tokenize.TokenInfo] = []
    code_lines: set[int] = set()
    skip = (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                comments.append(tok)
            elif tok.type not in skip:
                code_lines.add(tok.start[0])
    except tokenize.TokenError:  # unterminated constructs: ast.parse reports
        pass
    suppressions: list[Suppression] = []
    malformed: list[int] = []
    ordered_code = sorted(code_lines)
    for tok in comments:
        if not _MARKER_RE.search(tok.string):
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            malformed.append(tok.start[0])
            continue
        rules = tuple(part.strip() for part in match.group(1).split(","))
        line = tok.start[0]
        covers = line
        if line not in code_lines:  # standalone: cover the next code line
            covers = next((c for c in ordered_code if c > line), line)
        suppressions.append(
            Suppression(rules=rules, line=line, covers=covers,
                        justification=match.group("why"))
        )
    return suppressions, malformed


# ---------------------------------------------------------------------------
# Rules and the registry
# ---------------------------------------------------------------------------


class Rule:
    """Base class: one named, configurable check."""

    code: str = ""
    description: str = ""
    #: Rules whose scope is inherently project-specific (hot-path module
    #: lists, spec-hash baselines) stay off until the TOML names them.
    default_enabled: bool = True

    def __init__(self, options: dict) -> None:
        self.options = options

    def applies_to(self, rel: str) -> bool:
        """Whether this rule is in scope for a repo-relative path."""
        paths = self.options.get("paths")
        if paths and not any(fnmatch(rel, pattern) for pattern in paths):
            return False
        return not any(
            fnmatch(rel, pattern) for pattern in self.options.get("exclude", ())
        )


class SyntaxRule(Rule):
    """A per-file AST rule; define ``visit_<NodeType>`` handler methods."""

    def start_file(self, src: SourceFile, ctx: "FileContext") -> None:
        """Optional per-file prepass (import tables, scope maps)."""


class ProjectRule(Rule):
    """A cross-file rule; runs once over the whole linted tree."""

    def check(self, project: "Project") -> None:
        """Inspect the project and report findings via ``project.report``."""
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.code:
        raise ConfigurationError(f"rule {rule_class.__name__} has no code")
    if rule_class.code in _REGISTRY:
        raise ConfigurationError(f"duplicate rule code {rule_class.code!r}")
    _REGISTRY[rule_class.code] = rule_class
    return rule_class


def all_rule_codes() -> tuple[str, ...]:
    """Every registered rule code, sorted."""
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# The single-pass walker
# ---------------------------------------------------------------------------


class FileContext:
    """Per-file state handed to every rule handler."""

    def __init__(self, src: SourceFile, sink: list[Finding]) -> None:
        self.src = src
        self.ancestors: list[ast.AST] = []
        self._sink = sink
        self._cache: dict[str, object] = {}

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        """Record a finding anchored at ``node``."""
        self._sink.append(
            Finding(
                rule=rule,
                path=self.src.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    def shared(self, key: str, build):
        """Memoize per-file analysis shared between rules (import tables)."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def enclosing(self, *types: type) -> ast.AST | None:
        """The nearest ancestor of one of the given node types, if any."""
        for node in reversed(self.ancestors):
            if isinstance(node, types):
                return node
        return None

    def in_loop(self) -> bool:
        """Whether the current node sits inside a for/while body."""
        for node in reversed(self.ancestors):
            if isinstance(node, (ast.For, ast.While)):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return False
        return False

    @property
    def parent(self) -> ast.AST | None:
        """The immediate parent of the node under visitation."""
        return self.ancestors[-1] if self.ancestors else None


class _Walker(ast.NodeVisitor):
    """One AST pass dispatching each node to every interested rule."""

    def __init__(
        self, handlers: dict[str, list], ctx: FileContext
    ) -> None:
        self.handlers = handlers
        self.ctx = ctx

    def visit(self, node: ast.AST) -> None:
        for handler in self.handlers.get(type(node).__name__, ()):
            handler(node, self.ctx)
        self.ctx.ancestors.append(node)
        self.generic_visit(node)
        self.ctx.ancestors.pop()


def _handler_table(rules: Iterable[SyntaxRule]) -> dict[str, list]:
    handlers: dict[str, list] = {}
    for rule in rules:
        for name in dir(rule):
            if name.startswith("visit_"):
                handlers.setdefault(name[len("visit_"):], []).append(
                    getattr(rule, name)
                )
    return handlers


# ---------------------------------------------------------------------------
# Project view for cross-file rules
# ---------------------------------------------------------------------------


class Project:
    """What a :class:`ProjectRule` sees: the linted files plus the repo root.

    ``get_file`` loads modules *by repo-relative path* even when they are
    outside the lint targets (HASH001 must read the hashed dataclasses
    no matter which subtree is being linted); loaded files contribute their
    suppression comments exactly like linted ones.
    """

    def __init__(self, root: Path, files: dict[str, SourceFile],
                 sink: list[Finding]) -> None:
        self.root = root
        self._files = files
        self._sink = sink

    def get_file(self, rel: str) -> SourceFile:
        """The parsed source at a repo-relative path (loaded on demand)."""
        rel = str(Path(rel).as_posix())
        if rel not in self._files:
            path = self.root / rel
            try:
                self._files[rel] = SourceFile.read(path, rel)
            except OSError as error:
                raise ConfigurationError(
                    f"lint rule needs {rel!r} but it cannot be read: {error}"
                ) from None
            except SyntaxError as error:
                raise ConfigurationError(
                    f"lint rule needs {rel!r} but it does not parse: {error}"
                ) from None
        return self._files[rel]

    def report(self, rule: str, rel: str, line: int, message: str,
               col: int = 1) -> None:
        """Record a finding at an explicit position."""
        self._sink.append(
            Finding(rule=rule, path=rel, line=line, col=col, message=message)
        )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class LintResult:
    """All findings of one lint run, deterministically ordered."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        """Findings that gate the exit code."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings silenced by a justified suppression comment."""
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        """True when nothing unsuppressed was found."""
        return not self.unsuppressed


class LintRunner:
    """Collects files, runs every enabled rule, applies suppressions."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.rules: list[Rule] = []
        for code in sorted(_REGISTRY):
            rule_class = _REGISTRY[code]
            options = config.rules.get(code)
            if options is None:
                if not rule_class.default_enabled:
                    continue
                options = {}
            if not options.get("enabled", True):
                continue
            self.rules.append(rule_class(dict(options)))
        unknown = sorted(set(config.rules) - set(_REGISTRY))
        if unknown:
            raise ConfigurationError(
                f"repro-lint config names unknown rules {unknown}; "
                f"known: {sorted(_REGISTRY)}"
            )

    # -- file collection -----------------------------------------------------

    def _collect(self, targets: list[Path]) -> list[Path]:
        files: list[Path] = []
        for target in targets:
            if target.is_dir():
                files.extend(sorted(target.rglob("*.py")))
            elif target.exists():
                files.append(target)
            else:
                raise ConfigurationError(f"lint target {str(target)!r} does not exist")
        root = self.config.root.resolve()
        out: list[Path] = []
        seen: set[Path] = set()
        for path in files:
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            rel = self._rel(resolved, root)
            if any(fnmatch(rel, pattern) for pattern in self.config.exclude):
                continue
            out.append(resolved)
        return out

    def _rel(self, path: Path, root: Path) -> str:
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            return path.as_posix()

    # -- execution -------------------------------------------------------------

    def run(self, targets: list[Path]) -> LintResult:
        """Lint the targets; returns deterministic, suppression-applied findings."""
        root = self.config.root.resolve()
        sink: list[Finding] = []
        files: dict[str, SourceFile] = {}
        for path in self._collect(targets):
            rel = self._rel(path, root)
            try:
                src = SourceFile.read(path, rel)
            except SyntaxError as error:
                sink.append(
                    Finding(
                        rule=PARSE_ERROR, path=rel,
                        line=error.lineno or 1, col=(error.offset or 0) + 1,
                        message=f"file does not parse: {error.msg}",
                    )
                )
                continue
            files[rel] = src
            active = [
                rule for rule in self.rules
                if isinstance(rule, SyntaxRule) and rule.applies_to(rel)
            ]
            if not active:
                continue
            ctx = FileContext(src, sink)
            for rule in active:
                rule.start_file(src, ctx)
            _Walker(_handler_table(active), ctx).visit(src.tree)

        project = Project(root, files, sink)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                rule.check(project)

        findings = self._apply_suppressions(sink, files)
        findings.sort(key=Finding.sort_key)
        return LintResult(findings=findings, files=len(files))

    def _apply_suppressions(
        self, sink: list[Finding], files: dict[str, SourceFile]
    ) -> list[Finding]:
        out: list[Finding] = []
        for finding in sink:
            src = files.get(finding.path)
            matched = None
            if src is not None and finding.rule != UNUSED_SUPPRESSION:
                for sup in src.suppressions:
                    if sup.matches(finding):
                        matched = sup
                        sup.used = True
                        break
            if matched is None:
                out.append(finding)
            else:
                out.append(
                    Finding(
                        rule=finding.rule, path=finding.path,
                        line=finding.line, col=finding.col,
                        message=finding.message, suppressed=True,
                        justification=matched.justification,
                    )
                )
        for rel in sorted(files):
            src = files[rel]
            for sup in src.suppressions:
                if not sup.used:
                    out.append(
                        Finding(
                            rule=UNUSED_SUPPRESSION, path=rel,
                            line=sup.line, col=1,
                            message=(
                                "unused suppression "
                                f"(disable={','.join(sup.rules)}): no such "
                                "finding on the covered line — remove the "
                                "comment or restore the constraint it documents"
                            ),
                        )
                    )
            for line in src.malformed:
                out.append(
                    Finding(
                        rule=UNUSED_SUPPRESSION, path=rel, line=line, col=1,
                        message=(
                            "malformed repro-lint comment; expected "
                            "'# repro-lint: disable=RULE[,RULE...] -- justification'"
                        ),
                    )
                )
        return out
