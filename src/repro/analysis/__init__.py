"""repro.analysis — the project's own static contract checker (repro-lint).

The repo's guarantees (bit-exact sweep replay, the ``repro.engine``
facade, policy-salted memo keys, monotonic-clock latency, Prometheus
naming, picklable pool workers) are invariants no off-the-shelf linter
can know about.  This package encodes each one as a rule
(``RL001``–``RL014``, RL009 retired): the syntactic catalog runs on
single-file AST walks, and the flow rules (RL012–RL014) run on top of a
whole-program import graph (:mod:`repro.analysis.graph`) and an
intraprocedural taint dataflow (:mod:`repro.analysis.dataflow`).  An
incremental cache (:mod:`repro.analysis.cache`) memoizes per-file
findings by content and dependency hashes, and ``repro-cps lint``
surfaces the whole thing with text/JSON/SARIF reporters, ``--jobs``
fan-out, and ``--changed`` diff scoping.

Typical use::

    from repro.analysis import lint_paths, render_text

    findings = lint_paths(["src"])
    print(render_text(findings))

Importing this package registers the full rule catalog (the imports of
:mod:`repro.analysis.rules` and :mod:`repro.analysis.flowrules` below
are the registration side effect, the same pattern
:mod:`repro.core.schemes` uses for solver schemes).
"""

from __future__ import annotations

from repro.analysis import flowrules as _flowrules  # noqa: F401  (registers RL012–RL014)
from repro.analysis import rules as _rules  # noqa: F401  (registers RL001–RL008, RL010–RL011)
from repro.analysis.cache import DEFAULT_CACHE_PATH, LintCache, catalog_fingerprint
from repro.analysis.dataflow import ModuleDataflow
from repro.analysis.engine import (
    PARSE_ERROR_ID,
    FileContext,
    LintRun,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
    path_category,
)
from repro.analysis.findings import Finding
from repro.analysis.graph import ModuleInfo, ProjectGraph, build_graph, module_info
from repro.analysis.registry import (
    Rule,
    get_rule,
    register_rule,
    resolve_rules,
    rule_ids,
)
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "DEFAULT_CACHE_PATH",
    "PARSE_ERROR_ID",
    "FileContext",
    "Finding",
    "LintCache",
    "LintRun",
    "ModuleDataflow",
    "ModuleInfo",
    "ProjectGraph",
    "Rule",
    "build_graph",
    "catalog_fingerprint",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "module_info",
    "path_category",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_rules",
    "rule_ids",
]
