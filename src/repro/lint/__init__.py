"""``repro lint`` — static determinism & hash-integrity analysis.

Every layer of this reproduction stakes its correctness on bit-identical
determinism: vector/scalar engine parity, shard/worker/completion-order
invariance, and legacy-stable ``spec_key`` cache hashing.  Those
invariants are enforced *dynamically* by the test suite — after a hazard
has already been written.  This package moves the checks left: an
AST-based linter whose opening ruleset encodes the repo's hard-won
invariants (see ``docs/determinism.md`` for the catalogue and the war
stories behind each rule).

Layout:

* :mod:`repro.lint.framework` — findings, the single-pass AST walker,
  rule registry, ``# repro-lint: disable=RULE`` suppressions, and the
  :class:`LintRunner` orchestrator;
* :mod:`repro.lint.config` — ``repro-lint.toml`` discovery and parsing;
* :mod:`repro.lint.rules` — the per-file syntax rules (DET001–DET005,
  MP001);
* :mod:`repro.lint.hashrules` — the cross-file spec-hash coverage rule
  (HASH001);
* :mod:`repro.lint.reporters` — text and JSON output.

Quick start::

    from repro.lint import lint_paths

    result = lint_paths(["src"])          # discovers repro-lint.toml
    for finding in result.unsuppressed:
        print(finding)
"""

from repro.lint.config import DEFAULT_CONFIG_NAME, LintConfig, load_config
from repro.lint.framework import (
    Finding,
    LintResult,
    LintRunner,
    all_rule_codes,
)
from repro.lint.reporters import render_json, render_text

# Importing the rule modules registers their rules with the framework.
from repro.lint import hashrules as _hashrules  # noqa: F401
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "DEFAULT_CONFIG_NAME",
    "Finding",
    "LintConfig",
    "LintResult",
    "LintRunner",
    "all_rule_codes",
    "lint_paths",
    "load_config",
    "render_json",
    "render_text",
]


def lint_paths(paths, config=None):
    """Lint files or directories; returns a :class:`LintResult`.

    ``config`` may be a :class:`LintConfig`, a path to a TOML file, or
    None to discover ``repro-lint.toml`` upward from the first target.
    """
    from pathlib import Path

    targets = [Path(p) for p in paths]
    if isinstance(config, LintConfig):
        resolved = config
    else:
        start = targets[0] if targets else Path.cwd()
        resolved = load_config(start, explicit=config)
    return LintRunner(resolved).run(targets)
