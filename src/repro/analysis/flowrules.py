"""The whole-program flow rules (RL012–RL014).

These rules answer questions the syntactic catalog cannot:

=====  ====================  ==================================================
RL012  salt-flow             every FoldCache/SolverCache memo key — solve
                             salts, convolve identity keys, warm-start and
                             pair-tree keys — must be *reached by* a
                             policy-fingerprint value (the PR 8 stale-plan
                             bug class)
RL013  spawn-capture         values crossing a spawn pool boundary must be
                             picklable and built from deterministic sources
                             (deepens RL008 from syntax to dataflow)
RL014  unordered-iteration   set/dict iteration feeding fingerprints, cache
                             keys, or joined orderings must pass through
                             ``sorted()``
=====  ====================  ==================================================

They combine :mod:`repro.analysis.graph` (what *is* this receiver?
``from repro.engine import FoldCache`` resolves through the facade, and
``SolverCache`` inherits the contract as a subclass) with
:mod:`repro.analysis.dataflow` (does the value *derive from* a
fingerprint / a wall clock / a set?).

Where no project graph is available (single-file lint of a snippet),
RL012 falls back to names: a receiver matching ``*cache`` or a class
named like the cache classes is treated as one.  The fallback errs
strict — the suppression comment and the rule's domain scoping are the
escape hatches, and ``repro/core`` (which owns the raw solve layers the
policy compiler is built on, cf. RL010) is exempt wholesale.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar

from repro.analysis.dataflow import NONDET, SALT, UNORDERED, UNPICKLABLE, terminal_name
from repro.analysis.engine import FileContext
from repro.analysis.registry import Rule, register_rule
from repro.analysis.rules import SUBMIT_METHODS, collect_pool_names, is_pool_ctor

__all__ = ["SaltFlowRule", "SpawnCaptureRule", "UnorderedIterationRule"]

_CACHE_CLASS_NAMES: frozenset[str] = frozenset({"FoldCache", "SolverCache"})
_CACHE_NAME_RE = re.compile(r"(^|_)cache$", re.IGNORECASE)


# ---------------------------------------------------------------------------
# RL012 — salt-flow
# ---------------------------------------------------------------------------


@register_rule
class SaltFlowRule(Rule):
    """An unsalted memo key cannot tell two objective policies apart.

    PR 8's bug class: two policies compile different cost curves whose
    fingerprints collide under quantisation, and a ``FoldCache``/
    ``SolverCache`` keyed on the curve alone serves the first policy's
    plan to the second — a *stale plan*, silently.  The fix is a salt
    derived from ``ObjectivePolicy.fingerprint()`` mixed into every key:
    ``solve(..., salt=...)`` and the identity-``key=`` tuples of
    ``convolve`` (the pair-tree/warm-start paths).  This rule checks the
    *flow*: the salt argument must carry the SALT taint — reach back to a
    fingerprint call or a ``*salt*``-named policy value — not merely be
    present.

    Scope: the defining modules (``FoldCache``/``SolverCache`` and
    subclasses thereof) and ``repro/core`` are exempt — core's dynamic
    oracle solves raw default-policy curves below the policy boundary.
    """

    id = "RL012"
    name = "salt-flow"
    contract = "cache memo keys are reached by a policy-fingerprint salt"
    node_types = ()
    # benchmarks measure the raw cache layers deliberately unsalted
    domains = frozenset({"library"})

    _FOLD_METHODS: ClassVar[frozenset[str]] = frozenset({"solve"})

    def _cache_class_names(self, ctx: FileContext) -> frozenset[str]:
        """The cache classes plus, with a graph, their subclass closure."""
        names = set(_CACHE_CLASS_NAMES)
        graph = ctx.project
        if graph is not None:
            roots = [
                f"{info.name}.{cls}"
                for info in graph.modules.values()
                for cls, kind in info.defs
                if kind == "class" and cls in _CACHE_CLASS_NAMES
            ]
            for root in roots:
                for dotted in graph.subclasses_of(root):
                    names.add(dotted.rsplit(".", 1)[-1])
        return frozenset(names)

    def _is_cache_receiver(self, receiver: ast.expr, ctx: FileContext) -> bool:
        classes = self._cache_class_names(ctx)
        ctor = ctx.dataflow.ctor_of(receiver)
        if ctor in classes:
            return True
        if isinstance(receiver, ast.Call):
            name = terminal_name(receiver.func)
            return name in classes
        name = terminal_name(receiver)
        return name is not None and _CACHE_NAME_RE.search(name) is not None

    def finish_file(self, ctx: FileContext) -> None:
        if ctx.in_subpackage("core"):
            return
        classes = self._cache_class_names(ctx)
        for stmt in ast.walk(ctx.tree):
            if isinstance(stmt, ast.ClassDef) and stmt.name in classes:
                return  # the defining module implements the keying itself
        df = ctx.dataflow
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in ("solve", "convolve"):
                continue
            if not self._is_cache_receiver(node.func.value, ctx):
                continue
            if method == "solve":
                salt_kw = next((kw for kw in node.keywords if kw.arg == "salt"), None)
                if salt_kw is None:
                    ctx.report(
                        node, self,
                        ".solve() without salt= memoizes across objective "
                        "policies; pass salt=<policy fingerprint> so plans "
                        "cannot go stale (RL012 salt-flow)",
                    )
                elif SALT not in df.taint_of(salt_kw.value):
                    ctx.report(
                        node, self,
                        "salt= does not derive from a policy fingerprint; "
                        "thread ObjectivePolicy.fingerprint() (or the solver's "
                        "policy_salt) into the memo key",
                    )
            else:  # convolve
                key_kw = next((kw for kw in node.keywords if kw.arg == "key"), None)
                if key_kw is not None and SALT not in df.taint_of(key_kw.value):
                    ctx.report(
                        node, self,
                        "convolve identity key= does not mix the policy salt; "
                        "include the policy fingerprint in the key tuple so "
                        "pair-tree/warm-start entries are policy-scoped",
                    )


# ---------------------------------------------------------------------------
# RL013 — spawn-capture
# ---------------------------------------------------------------------------


@register_rule
class SpawnCaptureRule(Rule):
    """What crosses the spawn boundary must pickle and must replay.

    RL008 checks the *callable* syntactically; this rule checks the
    *payload* by dataflow.  Everything shipped to a worker — submit/map
    arguments and ``initargs=`` — is pickled into a fresh interpreter:

    * UNPICKLABLE values (lambdas, nested functions, generators, open
      files, locks) fail at submit time, or only on some platforms;
    * NONDET values (wall-clock timestamps, ``os.urandom``, uuid1/4,
      global-stream RNG draws) make worker results differ run to run,
      which breaks the bit-exact sweep replay the pools exist to speed
      up.
    """

    id = "RL013"
    name = "spawn-capture"
    contract = "spawn-pool payloads are picklable and deterministically built"
    node_types = ()
    domains = frozenset({"library", "benchmarks", "scripts"})

    def _check_payload(self, expr: ast.expr, ctx: FileContext, what: str) -> None:
        taint = ctx.dataflow.taint_of(expr)
        if UNPICKLABLE in taint:
            ctx.report(
                expr, self,
                f"{what} carries a value that cannot cross the spawn pickle "
                "boundary (lambda/nested function/generator/open handle/lock)",
            )
        elif NONDET in taint:
            ctx.report(
                expr, self,
                f"{what} derives from a nondeterministic source (wall clock/"
                "OS entropy/global RNG stream); workers must receive "
                "deterministic inputs for bit-exact replay",
            )

    def finish_file(self, ctx: FileContext) -> None:
        pool_names = collect_pool_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if is_pool_ctor(node):
                for kw in node.keywords:
                    if kw.arg == "initargs":
                        if isinstance(kw.value, (ast.Tuple, ast.List)):
                            for elt in kw.value.elts:
                                self._check_payload(elt, ctx, "initargs element")
                        else:
                            self._check_payload(kw.value, ctx, "initargs")
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHODS):
                continue
            receiver_is_pool = (
                isinstance(func.value, ast.Name) and func.value.id in pool_names
            ) or is_pool_ctor(func.value)
            if not receiver_is_pool:
                continue
            for arg in node.args[1:]:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                self._check_payload(inner, ctx, f"pool.{func.attr}() argument")


# ---------------------------------------------------------------------------
# RL014 — unordered-iteration
# ---------------------------------------------------------------------------


@register_rule
class UnorderedIterationRule(Rule):
    """Set/dict iteration order is not part of a value's equality.

    Two semantically equal runs can enumerate a ``set`` (or the views of
    equal-but-differently-built dicts) in different orders; anything
    ordering-sensitive built from such an iteration — a fingerprint, a
    cache ``key=``, a joined string — silently stops being a pure
    function of its inputs.  ``sorted()`` is the canonical fix and
    launders the taint.  (This is why ``ObjectivePolicy.fingerprint()``
    iterates tuples, never dicts.)
    """

    id = "RL014"
    name = "unordered-iteration"
    contract = "fingerprints, cache keys, and joins never draw on unsorted set/dict order"
    node_types = ()
    domains = frozenset({"library", "benchmarks", "scripts"})

    _HASH_TERMINALS: ClassVar[frozenset[str]] = frozenset(
        {"blake2b", "blake2s", "sha1", "sha256", "sha512", "md5"}
    )
    _KEY_NAME_RE: ClassVar[re.Pattern[str]] = re.compile(r"(^|_)keys?$", re.IGNORECASE)
    _FINGERPRINT_RE: ClassVar[re.Pattern[str]] = re.compile(r"fingerprint", re.IGNORECASE)

    def finish_file(self, ctx: FileContext) -> None:
        df = ctx.dataflow
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                tail = terminal_name(node.func)
                if tail is not None and (
                    tail in self._HASH_TERMINALS
                    or tail == "update"
                    and isinstance(node.func, ast.Attribute)
                    and self._looks_hashish(node.func.value)
                    or self._FINGERPRINT_RE.search(tail)
                ):
                    for arg in node.args:
                        if UNORDERED in df.taint_of(arg):
                            ctx.report(
                                arg, self,
                                "hash/fingerprint input drawn from unordered "
                                "set/dict iteration; wrap the iteration in "
                                "sorted(...) so the digest is order-stable",
                            )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                    and UNORDERED in df.taint_of(node.args[0])
                ):
                    ctx.report(
                        node.args[0], self,
                        "join() over unordered set/dict iteration emits a "
                        "different string per run; sort the iterable first",
                    )
                for kw in node.keywords:
                    if kw.arg in ("key", "salt") and UNORDERED in df.taint_of(kw.value):
                        ctx.report(
                            kw.value, self,
                            f"{kw.arg}= built from unordered set/dict "
                            "iteration is not a stable identity; sort before "
                            "keying",
                        )
            elif isinstance(node, ast.Assign):
                if UNORDERED not in df.taint_of(node.value):
                    continue
                # only when the assignment *materializes* an unordered
                # collection (tuple(d.items()), a comprehension over a set,
                # a bare view) — a per-element value drawn inside a loop is
                # not itself order-dependent
                if not isinstance(
                    node.value, (ast.Call, ast.ListComp, ast.GeneratorExp, ast.SetComp)
                ):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and self._KEY_NAME_RE.search(target.id) is not None
                    ):
                        ctx.report(
                            node, self,
                            f"{target.id!r} is built from unordered set/dict "
                            "iteration; cache keys must not depend on "
                            "iteration order — sort first",
                        )

    @staticmethod
    def _looks_hashish(receiver: ast.expr) -> bool:
        name = terminal_name(receiver)
        return name is not None and bool(
            re.search(r"(^|_)(h|hash|hasher|digest|fp)$", name, re.IGNORECASE)
        )
