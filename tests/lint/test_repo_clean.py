"""Tier-1 gate: the real repository lints clean.

This is the test CI's ``lint`` job duplicates from the shell
(``python -m repro.lint --strict``).  If it fails, either fix the violation
or — when the code is genuinely right — add a justified inline pragma
(``# lint: disable=CODE(reason)``); the baseline stays empty by policy
(see docs/lint.md).  Three layout rules are checked here directly: no module
under ``src/`` imports ``tests``, no reference oracle is defined there, and
no module there imports a name it never uses.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.lint import run_lint
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_has_no_findings():
    findings = run_lint(str(REPO_ROOT))
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_cli_strict_passes_on_repo(capsys):
    assert main(["--root", str(REPO_ROOT), "--strict"]) == 0
    assert "OK: no new findings" in capsys.readouterr().out


def test_committed_baseline_is_empty():
    # Policy: new violations get fixed or pragma'd, never baselined.  The
    # baseline mechanism exists for third-party adopters / emergencies.
    payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    assert payload == {"findings": [], "version": 1}


def test_src_never_imports_tests():
    # Reference oracles live under tests/; an import from src/ would turn
    # one back into a runtime dependency.
    sources = sorted((REPO_ROOT / "src").rglob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno} imports {module}"
                for module in modules
                if module.split(".")[0] == "tests"
            ]
    assert offenders == []


def test_src_defines_no_reference_oracle():
    # The slow reference implementations the fast paths are checked against
    # (``*_reference``) are test code: tests/nn/oracles.py, tests/sim/oracles.py
    # and the extractor tests.
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno} defines {node.name}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    ]
    assert offenders == []


def test_src_modules_use_every_import():
    # An import that its module neither uses nor re-exports through
    # ``__all__`` is dead code.  Package ``__init__``s are skipped: they
    # import to re-export and to fix the import order.
    offenders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno} imports {name}"
                for name in names
                if name not in used
            ]
    assert offenders == []
