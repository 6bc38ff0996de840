"""HASH001 — spec-hash coverage, on synthetic fixtures and the real tree.

The headline test copies the real spec modules plus ``repro-lint.toml``
into a scratch tree, appends a throwaway field to ``RunSpec`` without
touching any ledger, and asserts the lint run fails — exactly the
accident (a silent mass cache-key change) the rule exists to catch.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

from repro.lint import LintConfig, all_rule_codes, lint_paths, load_config

REPO = Path(__file__).resolve().parents[2]

#: Everything HASH001 needs from the real tree: the spec module holding
#: the execution table, the other hashed-dataclass modules, and the ledger.
_REAL_FILES = (
    "src/repro/sim/runner.py",
    "src/repro/sim/systems.py",
    "src/repro/network/conditions.py",
    "repro-lint.toml",
)


def _copy_real_tree(tmp_path: Path) -> None:
    for rel in _REAL_FILES:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO / rel, dest)


def _lint_runner(tmp_path: Path):
    config = load_config(tmp_path / "src")
    assert config.source == tmp_path / "repro-lint.toml"
    return lint_paths([tmp_path / "src" / "repro" / "sim" / "runner.py"],
                      config=config)


def test_real_ledger_is_clean(tmp_path):
    _copy_real_tree(tmp_path)
    result = _lint_runner(tmp_path)
    assert result.ok, [str(f) for f in result.unsuppressed]


def test_throwaway_runspec_field_fails_lint(tmp_path):
    _copy_real_tree(tmp_path)
    runner = tmp_path / "src" / "repro" / "sim" / "runner.py"
    text = runner.read_text(encoding="utf-8")
    anchor = '    engine: str = "vector"\n'
    assert anchor in text
    runner.write_text(
        text.replace(anchor, anchor + "    throwaway_knob: int = 0\n"),
        encoding="utf-8",
    )
    result = _lint_runner(tmp_path)
    hits = [f for f in result.unsuppressed if f.rule == "HASH001"]
    assert len(hits) == 1
    assert "RunSpec.throwaway_knob" in hits[0].message
    assert "baseline ledger" in hits[0].message


def _mini_project(
    tmp_path: Path, spec_body: str, model_body: str, baseline: tuple = ()
) -> LintConfig:
    (tmp_path / "spec.py").write_text(textwrap.dedent(spec_body), encoding="utf-8")
    (tmp_path / "model.py").write_text(textwrap.dedent(model_body), encoding="utf-8")
    rules = {c: {"enabled": False} for c in all_rule_codes()}
    rules["HASH001"] = {
        "enabled": True,
        "module": "spec.py",
        "dataclasses": {
            "Model": {"module": "model.py", "baseline": ["kept", *baseline]}
        },
    }
    return LintConfig(root=tmp_path, rules=rules)


_SPEC = """
    _EXECUTION_FIELDS = {"Model": frozenset({"engine"})}
    """

_MODEL = """
    class Model:
        kept: int = 0
        engine: str = "vector"
    """


def test_synthetic_fully_ledgered_model_is_clean(tmp_path):
    config = _mini_project(tmp_path, _SPEC, _MODEL)
    result = lint_paths([tmp_path / "model.py"], config=config)
    assert result.ok, [str(f) for f in result.unsuppressed]


def test_synthetic_unledgered_field_is_flagged(tmp_path):
    config = _mini_project(
        tmp_path, _SPEC, _MODEL + "    sneaky: float = 1.0\n"
    )
    result = lint_paths([tmp_path / "model.py"], config=config)
    hits = [f for f in result.unsuppressed if f.rule == "HASH001"]
    assert len(hits) == 1 and "Model.sneaky" in hits[0].message


def test_synthetic_stale_ledger_entries_are_flagged(tmp_path):
    stale_spec = """
        _EXECUTION_FIELDS = {"Model": frozenset({"engine", "vanished"})}
        """
    config = _mini_project(tmp_path, stale_spec, _MODEL, baseline=("gone",))
    result = lint_paths([tmp_path / "model.py"], config=config)
    messages = [f.message for f in result.unsuppressed if f.rule == "HASH001"]
    assert len(messages) == 2
    assert any("Model.gone" in m for m in messages)
    assert any("Model.vanished" in m for m in messages)
