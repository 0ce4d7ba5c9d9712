"""The dogfooding gate: the repo's own tree satisfies every contract.

This is the test that makes repro-lint a *ratchet*: any future change
that times with the wall clock, bypasses the engine facade, mints an
off-convention metric name, feeds unsorted iteration into a fingerprint,
or ships an unsalted cache lookup fails the suite, not just a CI side
job.  Since ISSUE 10 the gate covers all four trees — ``src``,
``benchmarks``, ``scripts`` and ``tests`` — under the full catalog;
per-rule domain scoping replaces the old ``--select`` carve-outs.
"""

import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis import lint_project, render_text, rule_ids
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
TREES = [REPO / "src", REPO / "benchmarks", REPO / "scripts", REPO / "tests"]


def test_whole_tree_is_contract_clean():
    run = lint_project(TREES)
    assert list(run.findings) == [], "\n" + render_text(list(run.findings))
    assert run.files == run.linted == run.graph_modules


def _has_suppression_comment(path):
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT and "repro-lint: disable" in tok.string:
                return True
    return False


def test_tree_has_no_blanket_suppressions():
    """The escape hatch exists but the shipped tree must not lean on it.

    Comments only: docstrings *documenting* the marker (the analysis
    package's own) are fine and must not count.
    """
    offenders = [
        p for tree in TREES for p in tree.rglob("*.py") if _has_suppression_comment(p)
    ]
    assert offenders == []


def test_cli_self_check_exits_zero(capsys):
    assert main(["lint"] + [str(t) for t in TREES]) == 0
    assert "no findings" in capsys.readouterr().out


def test_all_fourteen_rules_are_active():
    """RL001–RL014 with RL009 retired: thirteen rules, none reused."""
    assert rule_ids() == tuple(f"RL{i:03d}" for i in range(1, 15) if i != 9)


def test_mypy_strict_passes_on_typed_core():
    """Gated: runs only where mypy is installed (the CI typecheck job)."""
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", str(REPO / "pyproject.toml")],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
