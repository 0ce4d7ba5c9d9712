"""Driver, registry, reporter, and CLI behaviour of repro-lint."""

import json

import pytest

from repro.analysis import (
    PARSE_ERROR_ID,
    Finding,
    get_rule,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_sarif,
    render_text,
    resolve_rules,
    rule_ids,
)
from repro.analysis.registry import _REGISTRY, Rule, register_rule
from repro.cli import main

CATALOG = (
    "RL001",
    "RL002",
    "RL003",
    "RL004",
    "RL005",
    "RL006",
    "RL007",
    "RL008",
    "RL010",
    "RL011",
    "RL012",
    "RL013",
    "RL014",
)


# ----------------------------------------------------------------- registry
def test_catalog_is_registered_in_order():
    assert rule_ids() == CATALOG
    for rid in CATALOG:
        cls = get_rule(rid)
        assert cls.id == rid
        assert cls.name and cls.contract


def test_get_rule_unknown_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rule("RL999")


def test_resolve_rules_selects_in_given_order():
    classes = resolve_rules(["RL007", "RL002"])
    assert [c.id for c in classes] == ["RL007", "RL002"]
    assert len(resolve_rules(None)) == len(CATALOG)


def test_register_rule_validates_id_name_and_duplicates():
    class BadId(Rule):
        id = "X1"
        name = "bad"
        contract = "bad"

    with pytest.raises(ValueError, match="must match RLxxx"):
        register_rule(BadId)

    class NoContract(Rule):
        id = "RL900"
        name = "no-contract"
        contract = ""

    with pytest.raises(ValueError, match="name and a contract"):
        register_rule(NoContract)

    class Dup(Rule):
        id = "RL001"
        name = "dup"
        contract = "dup"

    with pytest.raises(ValueError, match="already registered"):
        register_rule(Dup)
    # failed registrations must not leave residue in the catalog
    assert rule_ids() == CATALOG


def test_custom_rule_can_be_registered_and_selected():
    import ast

    class ShoutRule(Rule):
        id = "RL901"
        name = "no-shouting"
        contract = "no names in all caps"
        node_types = (ast.Name,)

        def check(self, node, ctx):
            if node.id.isupper():
                ctx.report(node, self, "no shouting")

    register_rule(ShoutRule)
    try:
        fs = lint_source("LOUD = 1\nquiet = 2\n", "x.py", rules=[ShoutRule])
        assert [f.rule_id for f in fs] == ["RL901"]
        assert fs[0].line == 1
    finally:
        _REGISTRY.pop("RL901")


# ------------------------------------------------------------------- driver
def test_syntax_error_reports_rl000():
    fs = lint_source("def broken(:\n", "bad.py")
    assert [f.rule_id for f in fs] == [PARSE_ERROR_ID]
    assert "does not parse" in fs[0].message


def test_findings_are_sorted_and_deterministic():
    src = "import time\nassert time.time()\n"
    first = lint_source(src, "x.py")
    second = lint_source(src, "x.py")
    assert first == second == sorted(first)
    # location order: the assert statement (col 1) before the call inside it
    assert [f.rule_id for f in first] == ["RL007", "RL002"]


def test_lint_file_and_iter_python_files(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    bad = tmp_path / "sub" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\nt = time.time()\n")
    tmp_path.joinpath("notes.txt").write_text("not python")

    assert iter_python_files([tmp_path]) == [good, bad]
    assert lint_file(good) == []
    fs = lint_paths([tmp_path])
    assert [f.rule_id for f in fs] == ["RL002"]
    assert fs[0].path == str(bad)


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        iter_python_files(["no/such/dir"])


# ---------------------------------------------------------------- reporters
def _finding(**kw):
    base = dict(path="a.py", line=3, col=5, rule_id="RL002", message="msg")
    base.update(kw)
    return Finding(**base)


def test_render_text_lists_findings_and_tally():
    out = render_text([_finding(), _finding(line=9, rule_id="RL007")])
    assert "a.py:3:5: RL002 msg" in out
    assert out.endswith("repro-lint: 2 findings (RL002×1, RL007×1)")
    assert render_text([]) == "repro-lint: no findings"


def test_render_json_shape():
    payload = json.loads(render_json([_finding()]))
    assert payload["count"] == 1
    assert payload["findings"][0] == {
        "path": "a.py", "line": 3, "col": 5, "rule": "RL002", "message": "msg",
    }
    assert json.loads(render_json([])) == {"count": 0, "findings": []}


def test_render_sarif_shape():
    doc = json.loads(render_sarif([_finding()]))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(CATALOG)
    result = run["results"][0]
    assert result["ruleId"] == "RL002"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "a.py"
    assert loc["region"] == {"startLine": 3, "startColumn": 5}
    assert json.loads(render_sarif([]))["runs"][0]["results"] == []


# ---------------------------------------------------------------------- CLI
def test_cli_lint_clean_exits_zero(tmp_path, capsys):
    f = tmp_path / "clean.py"
    f.write_text("x = 1\n")
    assert main(["lint", str(f)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_findings_exit_one(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(f)]) == 1
    out = capsys.readouterr().out
    assert "RL002" in out and "1 finding" in out


def test_cli_lint_json_format(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(f), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "RL002"


def test_cli_lint_select_limits_rules(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import time\nassert time.time()\n")
    assert main(["lint", str(f), "--select", "RL007"]) == 1
    out = capsys.readouterr().out
    assert "RL007" in out and "RL002" not in out


def test_cli_lint_usage_errors_exit_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--select", "RL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in CATALOG:
        assert rid in out


def test_cli_lint_sarif_format(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(f), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"][0]["ruleId"] == "RL002"


def test_cli_lint_cache_and_jobs(tmp_path, capsys):
    f = tmp_path / "clean.py"
    f.write_text("x = 1\n")
    cache = tmp_path / "cache.json"
    assert main(["lint", str(f), "--cache", str(cache), "--stats"]) == 0
    assert cache.is_file()
    assert main(["lint", str(f), "--cache", str(cache), "--jobs", "2", "--stats"]) == 0
    err = capsys.readouterr().err
    assert "cache hits 1" in err
