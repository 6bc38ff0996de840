"""``repro-lint.toml`` discovery and parsing.

The config scopes each rule to the paths where its invariant actually
holds (bit-parity hot paths, aggregator modules, worker entry points)
and carries the HASH001 spec-key field ledger.  Layout::

    [lint]
    exclude = ["**/__pycache__/**"]

    [lint.rules.DET001]
    paths = ["src/repro/sim/**", "src/repro/network/**"]

    [lint.rules.HASH001.dataclasses.RunSpec]
    module = "src/repro/sim/runner.py"
    baseline = ["system", "app"]

Paths are fnmatch globs relative to the directory holding the config
file (the *lint root*); findings are reported relative to it too.  With
no config file, path-agnostic rules run everywhere and project-specific
rules (DET004, DET005, HASH001) stay off.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["DEFAULT_CONFIG_NAME", "LintConfig", "load_config"]

DEFAULT_CONFIG_NAME = "repro-lint.toml"

#: Directories never worth linting, config or not.
_DEFAULT_EXCLUDE = ("**/__pycache__/**", "**/.git/**")


@dataclass
class LintConfig:
    """Resolved lint configuration.

    ``root`` anchors every relative path (rule scopes, HASH001 modules,
    reported finding paths); ``source`` is the TOML file it came from,
    or None for the built-in defaults.
    """

    root: Path
    source: Path | None = None
    rules: dict[str, dict] = field(default_factory=dict)
    exclude: tuple[str, ...] = _DEFAULT_EXCLUDE


def load_config(start: Path | str, explicit: Path | str | None = None) -> LintConfig:
    """Load the lint config.

    ``explicit`` names a TOML file directly; otherwise the directories
    from ``start`` upward are searched for ``repro-lint.toml``.  No file
    found yields the built-in defaults rooted at ``start``.
    """
    if explicit is not None:
        path = Path(explicit)
        if not path.is_file():
            raise ConfigurationError(f"lint config {str(path)!r} does not exist")
        return _parse(path)
    probe = Path(start).resolve()
    if probe.is_file():
        probe = probe.parent
    for directory in (probe, *probe.parents):
        candidate = directory / DEFAULT_CONFIG_NAME
        if candidate.is_file():
            return _parse(candidate)
    return LintConfig(root=probe)


def _parse(path: Path) -> LintConfig:
    try:
        payload = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as error:
        raise ConfigurationError(f"invalid TOML in {str(path)!r}: {error}") from None
    section = payload.get("lint", payload)
    if not isinstance(section, dict):
        raise ConfigurationError(f"{str(path)!r}: [lint] must be a table")
    rules = section.get("rules", {})
    if not isinstance(rules, dict) or not all(
        isinstance(options, dict) for options in rules.values()
    ):
        raise ConfigurationError(
            f"{str(path)!r}: [lint.rules.<CODE>] entries must be tables"
        )
    exclude = section.get("exclude", [])
    if not isinstance(exclude, list):
        raise ConfigurationError(f"{str(path)!r}: lint.exclude must be a list")
    return LintConfig(
        root=path.resolve().parent,
        source=path,
        rules={code: dict(options) for code, options in rules.items()},
        exclude=_DEFAULT_EXCLUDE + tuple(str(pattern) for pattern in exclude),
    )
