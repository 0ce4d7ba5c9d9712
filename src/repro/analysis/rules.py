"""The syntactic project-contract rules (RL001–RL008, RL010–RL011).

Each rule encodes an invariant the repo's correctness or operability
story depends on — none of them is a style preference, and none is
checkable by a generic linter because each one is about *this* repo's
contracts:

=====  ====================  ==================================================
RL001  no-unseeded-rng       bit-exact §VII-A replay needs every RNG seeded
RL002  no-wall-clock-timing  durations must come from the monotonic clocks
RL003  engine-facade         ``repro.engine`` is the single solve entry point
RL004  no-float-equality     numeric code compares floats with tolerances
RL005  prom-naming           ``repro_`` prefix + unit suffixes on /metrics
RL006  span-context-manager  spans must close even on the exception path
RL007  no-assert-validation  asserts vanish under ``python -O``
RL008  picklable-pool-worker sweep workers must pickle and stay functional
RL010  policy-integrity      cost curves are compiled from ObjectivePolicy,
                             not hand-assembled from the raw constructors
RL011  flight-integrity      decision events go through the flight-recorder
                             facade, never hand-built ``FlightEvent`` objects
=====  ====================  ==================================================

RL009 is retired; its ID is not reused.  The whole-program *flow* rules
(RL012–RL014) live in :mod:`repro.analysis.flowrules`; they build on the
import graph and the taint dataflow rather than on single-node syntax.

All checks are static (stdlib :mod:`ast`, no imports of the linted
code), so the linter can run on a broken checkout and never executes
what it checks.  Where a rule needs a judgement call the *stricter*
reading wins and the inline suppression comment is the escape hatch.

Every rule declares the file ``domains`` it patrols (see
:data:`repro.analysis.registry.CATEGORIES`).  Tests probe internals and
construct counterexamples on purpose — a test that feeds a bad metric
name to the registry, or imports the raw cost constructors to pin the
policy compiler bit-exact, is doing its job — so contracts about shipped
code scope themselves to the library (plus, where it makes sense,
benchmarks and scripts) instead of firing on the probes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import ClassVar

from repro.analysis.engine import FileContext
from repro.analysis.registry import Rule, register_rule

__all__ = [
    "UnseededRngRule",
    "WallClockTimingRule",
    "EngineFacadeRule",
    "FloatEqualityRule",
    "PromNamingRule",
    "SpanContextManagerRule",
    "AssertValidationRule",
    "PoolWorkerRule",
    "PolicyIntegrityRule",
    "FlightIntegrityRule",
]


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# Shared pool-detection helpers: RL008 (syntactic worker checks) and
# RL013 (dataflow capture checks) must agree on what counts as a pool.
POOL_CTORS: frozenset[str] = frozenset({"ProcessPoolExecutor", "Pool"})
SUBMIT_METHODS: frozenset[str] = frozenset(
    {"map", "submit", "apply_async", "apply", "imap", "imap_unordered", "starmap"}
)


def is_pool_ctor(node: ast.expr) -> bool:
    """True when ``node`` constructs a process pool."""
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted_name(node.func)
    return dotted is not None and dotted.split(".")[-1] in POOL_CTORS


def collect_pool_names(tree: ast.Module) -> set[str]:
    """Names bound to pool instances (``pool = ...`` / ``with ... as pool``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_pool_ctor(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.withitem) and is_pool_ctor(node.context_expr):
            if isinstance(node.optional_vars, ast.Name):
                names.add(node.optional_vars.id)
    return names


# ---------------------------------------------------------------------------
# RL001 — seeded randomness only
# ---------------------------------------------------------------------------


@register_rule
class UnseededRngRule(Rule):
    """Global-state or seedless RNG breaks bit-exact sweep replay.

    The §VII-A sweep is golden-pinned: the same config must reproduce the
    same bytes.  ``np.random.rand()`` and friends draw from an ambient
    global stream (order-dependent across refactors), and a seedless
    ``default_rng()`` reseeds from the OS on every call.  Every generator
    must be constructed as ``np.random.default_rng(seed)`` and threaded
    explicitly.
    """

    id = "RL001"
    name = "no-unseeded-rng"
    contract = "randomness flows from explicitly seeded Generators only"
    node_types = (ast.Call,)

    _GENERATOR_TYPES: ClassVar[frozenset[str]] = frozenset(
        {"Generator", "BitGenerator", "SeedSequence", "PCG64", "PCG64DXSM",
         "Philox", "SFC64", "MT19937"}
    )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted_name(node.func)
        seedless = not node.args and not node.keywords
        if dotted is None:
            return
        parts = dotted.split(".")
        if dotted == "default_rng" or parts[-2:-1] == ["random"] and parts[-1] == "default_rng":
            if seedless:
                ctx.report(
                    node, self,
                    "default_rng() without a seed reseeds from the OS; pass an "
                    "explicit seed so runs replay bit-exactly",
                )
            return
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            tail = parts[2]
            if tail in self._GENERATOR_TYPES:
                return
            if tail == "RandomState" and not seedless:
                return  # legacy but explicitly seeded
            ctx.report(
                node, self,
                f"np.random.{tail}() draws from the global RNG stream; "
                "construct np.random.default_rng(seed) and thread it through",
            )


# ---------------------------------------------------------------------------
# RL002 — monotonic clocks for durations
# ---------------------------------------------------------------------------


@register_rule
class WallClockTimingRule(Rule):
    """``time.time()`` is not a duration clock.

    The wall clock steps under NTP and DST; every latency the repo
    reports (resolve histograms, sweep wall-clock, span durations) must
    come from ``time.perf_counter()`` or ``time.monotonic()``.  Code
    that genuinely needs calendar time should use :mod:`datetime`, which
    this rule does not touch.
    """

    id = "RL002"
    name = "no-wall-clock-timing"
    contract = "durations are measured on perf_counter/monotonic only"
    node_types = (ast.Call,)

    _BANNED: ClassVar[frozenset[str]] = frozenset({"time.time", "time.clock"})

    def __init__(self) -> None:
        self._wall_aliases: set[str] = set()

    def start_file(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "clock"):
                        self._wall_aliases.add(alias.asname or alias.name)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted_name(node.func)
        if dotted in self._BANNED or (
            isinstance(node.func, ast.Name) and node.func.id in self._wall_aliases
        ):
            ctx.report(
                node, self,
                "time.time() is wall-clock (steps under NTP/DST); use "
                "time.perf_counter() or time.monotonic() for durations",
            )


# ---------------------------------------------------------------------------
# RL003 — engine facade integrity
# ---------------------------------------------------------------------------

#: repro package root -> names re-exported by its engine facade (or None
#: when the facade's ``__all__`` cannot be read statically).
_FACADE_EXPORTS_CACHE: dict[Path, frozenset[str] | None] = {}


def _facade_exports(path: str) -> frozenset[str] | None:
    """``repro.engine.__all__`` for the tree containing ``path``, if findable."""
    for parent in Path(path).resolve().parents:
        if parent.name != "repro":
            continue
        if parent in _FACADE_EXPORTS_CACHE:
            return _FACADE_EXPORTS_CACHE[parent]
        init = parent / "engine" / "__init__.py"
        exports: frozenset[str] | None = None
        if init.is_file():
            try:
                tree = ast.parse(init.read_text(encoding="utf-8"))
            except SyntaxError:
                tree = None
            if tree is not None:
                for stmt in tree.body:
                    if (
                        isinstance(stmt, ast.Assign)
                        and any(
                            isinstance(t, ast.Name) and t.id == "__all__"
                            for t in stmt.targets
                        )
                        and isinstance(stmt.value, (ast.List, ast.Tuple))
                    ):
                        exports = frozenset(
                            elt.value
                            for elt in stmt.value.elts
                            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                        )
        _FACADE_EXPORTS_CACHE[parent] = exports
        return exports
    return None


@register_rule
class EngineFacadeRule(Rule):
    """Only ``repro.engine``'s re-exported names may cross the facade.

    The engine layer owns the single solve/memoization path; a deep
    import (``from repro.engine.foldcache import ...``) couples callers
    to the internal module layout and lets them bypass whatever the
    facade guarantees (registration side effects, one shared FoldCache
    contract).  Inside ``repro/engine/`` itself the rule is silent —
    the package wires its own internals.
    """

    id = "RL003"
    name = "engine-facade"
    contract = "outside repro/engine, import only what repro.engine re-exports"
    node_types = (ast.Import, ast.ImportFrom)
    # tests exercise engine internals directly (white-box pins)
    domains = frozenset({"library", "benchmarks", "scripts"})

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.in_subpackage("engine"):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.engine."):
                    ctx.report(
                        node, self,
                        f"deep import of {alias.name}; import repro.engine "
                        "(the facade) instead",
                    )
            return
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            return
        if node.module.startswith("repro.engine."):
            ctx.report(
                node, self,
                f"deep import from {node.module}; import the names from "
                "repro.engine (the facade) instead",
            )
            return
        if node.module == "repro.engine":
            exports = _facade_exports(ctx.path)
            if exports is None:
                return
            for alias in node.names:
                if alias.name != "*" and alias.name not in exports:
                    ctx.report(
                        node, self,
                        f"{alias.name!r} is not re-exported by repro.engine; "
                        "add it to the facade's __all__ or stop relying on it",
                    )


# ---------------------------------------------------------------------------
# RL004 — no float equality in numeric code
# ---------------------------------------------------------------------------


def _floatish(expr: ast.expr) -> bool:
    """Syntactically certain to be a float: literal, float() cast, division."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp):
        return _floatish(expr.operand)
    if isinstance(expr, ast.BinOp):
        return isinstance(expr.op, ast.Div) or _floatish(expr.left) or _floatish(expr.right)
    if isinstance(expr, ast.Call):
        dotted = _dotted_name(expr.func)
        return dotted in ("float", "np.float64", "np.float32", "numpy.float64")
    return False


@register_rule
class FloatEqualityRule(Rule):
    """``==``/``!=`` against float values in the numeric packages.

    The locality/composition/engine/core layers carry the paper's math;
    exact equality on floats there is almost always a latent precision
    bug (it holds on one BLAS and not another).  Compare with a
    tolerance (``math.isclose``/``np.isclose``) or restructure onto
    integers.  Comparisons with ``inf``/``nan`` sentinels via
    ``np.isfinite`` etc. are unaffected — the rule only fires when an
    operand is *syntactically* float-valued (float literal, ``float()``
    cast, or a true division).
    """

    id = "RL004"
    name = "no-float-equality"
    contract = "numeric packages compare floats with tolerances, never == / !="
    node_types = (ast.Compare,)

    _PACKAGES: ClassVar[tuple[str, ...]] = ("locality", "composition", "engine", "core")

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, ast.Compare):
            return
        if not ctx.in_subpackage(*self._PACKAGES):
            return
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _floatish(left) or _floatish(right)
            ):
                ctx.report(
                    node, self,
                    "float ==/!= is precision-fragile in numeric code; use "
                    "math.isclose/np.isclose or compare integers",
                )
                return
            left = right


# ---------------------------------------------------------------------------
# RL005 — Prometheus naming conventions
# ---------------------------------------------------------------------------


@register_rule
class PromNamingRule(Rule):
    """Metric names carry the ``repro_`` namespace and unit suffixes.

    Scrapers aggregate across jobs by name alone, so the exposition is a
    public API: every family is namespaced ``repro_``, counters end in
    ``_total``, and histograms name their unit (``_seconds``/``_bytes``).
    A gauge must not end in ``_total`` (that suffix promises counter
    semantics to PromQL's ``rate()``).  Checked on literal name
    arguments and on the literal head/tail of f-string names (the
    ``f"{prefix}_..."`` pattern the registries use).
    """

    id = "RL005"
    name = "prom-naming"
    contract = "metric families are repro_-namespaced with unit suffixes"
    node_types = (ast.Call,)
    # tests feed bad names to the registry on purpose (rejection pins)
    domains = frozenset({"library", "benchmarks", "scripts"})

    _METHOD_KINDS: ClassVar[dict[str, str]] = {
        "counter": "counter", "gauge": "gauge", "histogram": "histogram",
    }
    _CTOR_KINDS: ClassVar[dict[str, str]] = {
        "Counter": "counter", "Gauge": "gauge", "Histogram": "histogram",
    }
    _HISTOGRAM_UNITS: ClassVar[tuple[str, ...]] = ("_seconds", "_bytes", "_total")

    def _metric_kind(self, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in self._METHOD_KINDS:
            return self._METHOD_KINDS[node.func.attr]
        dotted = _dotted_name(node.func)
        if dotted is not None and dotted.split(".")[-1] in self._CTOR_KINDS:
            # constructor form takes (name, help); require both so that
            # e.g. collections.Counter(iterable) never matches
            if len(node.args) + len(node.keywords) >= 2:
                return self._CTOR_KINDS[dotted.split(".")[-1]]
        return None

    @staticmethod
    def _name_parts(node: ast.Call) -> tuple[str | None, str | None, bool]:
        """(literal head, literal tail, is_complete) of the name argument."""
        arg: ast.expr | None = node.args[0] if node.args else None
        if arg is None:
            for kw in node.keywords:
                if kw.arg == "name":
                    arg = kw.value
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value, arg.value, True
        if isinstance(arg, ast.JoinedStr) and arg.values:
            head = tail = None
            first, last = arg.values[0], arg.values[-1]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                head = first.value
            if isinstance(last, ast.Constant) and isinstance(last.value, str):
                tail = last.value
            return head, tail, False
        return None, None, False

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, ast.Call):
            return
        kind = self._metric_kind(node)
        if kind is None:
            return
        head, tail, complete = self._name_parts(node)
        if head is None and tail is None:
            return  # fully dynamic name; nothing checkable statically
        if complete and head is not None and not head.startswith("repro_"):
            ctx.report(
                node, self,
                f"metric {head!r} must carry the repro_ namespace prefix",
            )
        elif not complete and head is not None and not head.startswith("repro_"):
            ctx.report(
                node, self,
                "metric name's literal prefix must start with repro_ "
                "(or begin with the namespaced {prefix} placeholder)",
            )
        if tail is None:
            return
        if kind == "counter" and not tail.endswith("_total"):
            ctx.report(node, self, "counter names must end in _total")
        elif kind == "histogram" and not tail.endswith(self._HISTOGRAM_UNITS):
            ctx.report(
                node, self,
                "histogram names must end in a unit suffix (_seconds/_bytes/_total)",
            )
        elif kind == "gauge" and tail.endswith("_total"):
            ctx.report(
                node, self,
                "gauge names must not end in _total (it promises counter "
                "semantics to rate())",
            )


# ---------------------------------------------------------------------------
# RL006 — spans only via with
# ---------------------------------------------------------------------------


@register_rule
class SpanContextManagerRule(Rule):
    """A span opened outside ``with`` leaks on the exception path.

    ``Tracer.span`` hands back a context manager; entering it pushes the
    tracer's nesting stack and exiting records the span.  Calling it any
    other way (storing it, passing it around, entering manually) either
    never records or — worse — corrupts the parent stack when an
    exception skips the exit.  The only sanctioned shape is
    ``with tracer.span(...):`` (optionally ``as s``).
    """

    id = "RL006"
    name = "span-context-manager"
    contract = "tracer spans are opened only as with-statement contexts"
    node_types = (ast.Call,)
    # tests hold spans open deliberately to probe the misuse paths
    domains = frozenset({"library", "benchmarks", "scripts"})

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, ast.Call):
            return
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "span"):
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.withitem) and parent.context_expr is node:
            return
        ctx.report(
            node, self,
            ".span(...) must be the context expression of a with statement "
            "so the span closes on every path",
        )


# ---------------------------------------------------------------------------
# RL007 — no assert validation, no mutable defaults
# ---------------------------------------------------------------------------


@register_rule
class AssertValidationRule(Rule):
    """Library code must fail the same way under ``python -O``.

    ``assert`` statements are compiled out with ``-O``, so an assert
    guarding an argument or an internal invariant silently stops
    guarding in optimized deployments — raise ``ValueError``/
    ``TypeError`` (or ``RuntimeError`` for impossible states) instead.
    Mutable default arguments ride along here: they are the other
    classic works-until-it-doesn't validation trap (one shared list
    across calls).
    """

    id = "RL007"
    name = "no-assert-validation"
    contract = "src/ raises explicit errors; no assert, no mutable defaults"
    node_types = (ast.Assert, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    # assert IS the assertion mechanism in tests and benchmark spot-checks
    domains = frozenset({"library", "scripts"})

    _MUTABLE_CTORS: ClassVar[frozenset[str]] = frozenset({"dict", "list", "set"})

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Assert):
            ctx.report(
                node, self,
                "assert vanishes under python -O; raise ValueError/TypeError "
                "(or RuntimeError for impossible states) instead",
            )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and _dotted_name(default.func) in self._MUTABLE_CTORS
                )
                if mutable:
                    ctx.report(
                        default, self,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                    )


# ---------------------------------------------------------------------------
# RL008 — pool workers must pickle and stay functional
# ---------------------------------------------------------------------------


@register_rule
class PoolWorkerRule(Rule):
    """Everything handed to a worker pool must be a module-level function.

    ``ProcessPoolExecutor``/``multiprocessing.Pool`` pickle the callable
    by qualified name: lambdas, nested functions, and bound methods fail
    at submit time (or, with some start methods, only on some
    platforms).  Workers also must not rebind module globals (``global``
    statements): each worker process has its own module copy, so the
    rebinding is invisible to the parent and to other workers — state
    that must live per-worker belongs in an initializer-populated
    mapping (the ``_POOL_STATE`` pattern in
    :mod:`repro.experiments.methodology`).
    """

    id = "RL008"
    name = "picklable-pool-worker"
    contract = "pool workers are module-level functions that rebind no globals"
    node_types = ()

    def _check_worker(
        self,
        expr: ast.expr,
        ctx: FileContext,
        module_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        imported: set[str],
    ) -> None:
        if isinstance(expr, ast.Lambda):
            ctx.report(
                expr, self,
                "lambdas cannot be pickled into worker processes; use a "
                "module-level function",
            )
            return
        if isinstance(expr, ast.Call) and _dotted_name(expr.func) in (
            "partial", "functools.partial",
        ):
            if expr.args:
                self._check_worker(expr.args[0], ctx, module_defs, imported)
            return
        if isinstance(expr, ast.Attribute):
            ctx.report(
                expr, self,
                "bound methods / attribute lookups are fragile across the "
                "pickle boundary; use a module-level function",
            )
            return
        if isinstance(expr, ast.Name):
            if expr.id in module_defs:
                worker = module_defs[expr.id]
                for inner in ast.walk(worker):
                    if isinstance(inner, ast.Global):
                        ctx.report(
                            inner, self,
                            f"pool worker {expr.id!r} rebinds module globals "
                            "({}); per-worker state belongs in an "
                            "initializer-populated mapping".format(
                                ", ".join(inner.names)
                            ),
                        )
                return
            if expr.id in imported:
                return  # defined at module level elsewhere; picklable
            ctx.report(
                expr, self,
                f"{expr.id!r} is not a module-level function in this module; "
                "nested functions cannot be pickled into worker processes",
            )

    def finish_file(self, ctx: FileContext) -> None:
        module_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {
            stmt.name: stmt
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        imported: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in stmt.names)
            elif isinstance(stmt, ast.ImportFrom):
                imported.update(a.asname or a.name for a in stmt.names)

        pool_names = collect_pool_names(ctx.tree)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if is_pool_ctor(node):
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        self._check_worker(kw.value, ctx, module_defs, imported)
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHODS):
                continue
            receiver_is_pool = (
                isinstance(func.value, ast.Name) and func.value.id in pool_names
            ) or is_pool_ctor(func.value)
            if receiver_is_pool and node.args:
                self._check_worker(node.args[0], ctx, module_defs, imported)


# ---------------------------------------------------------------------------
# RL010 — cost curves come from the policy API
# ---------------------------------------------------------------------------


@register_rule
class PolicyIntegrityRule(Rule):
    """Hand-assembled cost curves bypass the policy fingerprint.

    :mod:`repro.core.policy` is the single place objectives become cost
    curves: :func:`~repro.core.policy.compile_costs` composes weights,
    SLO caps and baseline constraints *and* ties the result to a
    ``policy_fingerprint()`` that the fold/solver caches mix into their
    keys.  Code outside ``repro/core`` that imports the raw constructors
    (``miss_count_costs``/``weighted_miss_costs``/``qos_costs``/
    ``constrained_costs``) builds curves the caches cannot tell apart
    from differently-weighted ones — the exact stale-plan bug the
    fingerprint exists to prevent.  Inside ``repro/core`` the rule is
    silent: the policy compiler itself is built from those constructors.
    """

    id = "RL010"
    name = "policy-integrity"
    contract = "outside repro/core, cost curves are built via the policy API"
    node_types = (ast.Import, ast.ImportFrom)
    # tests build raw curves to pin the constructors themselves
    domains = frozenset({"library", "benchmarks", "scripts"})

    _BANNED: ClassVar[frozenset[str]] = frozenset(
        {"miss_count_costs", "weighted_miss_costs", "qos_costs", "constrained_costs"}
    )
    _SOURCES: ClassVar[frozenset[str]] = frozenset(
        {"repro.core", "repro.core.objectives"}
    )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.in_subpackage("core"):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.core.objectives":
                    ctx.report(
                        node, self,
                        "deep import of repro.core.objectives reaches past the "
                        "policy API; compile cost curves with "
                        "repro.core.policy.compile_costs so cache keys carry "
                        "the policy fingerprint",
                    )
            return
        if not isinstance(node, ast.ImportFrom) or node.module not in self._SOURCES:
            return
        for alias in node.names:
            if alias.name in self._BANNED:
                ctx.report(
                    node, self,
                    f"{alias.name} hand-assembles a cost curve and bypasses "
                    "policy_fingerprint(); compile it from an ObjectivePolicy "
                    "(repro.core.policy.compile_costs) so the fold/solver "
                    "caches can tell policies apart",
                )


# ---------------------------------------------------------------------------
# RL011 — flight events only via the recorder facade
# ---------------------------------------------------------------------------


@register_rule
class FlightIntegrityRule(Rule):
    """The flight journal is an audit trail only if every event goes
    through :meth:`~repro.obs.flight.FlightRecorder.emit`.

    ``emit()`` is where the schema version, the monotonically increasing
    ``seq``, the recorder ``pid`` and the ambient epoch are stamped — a
    hand-constructed ``FlightEvent`` (or a deep import of
    :mod:`repro.obs.flight` internals) can forge any of them, and
    :func:`~repro.obs.flight.validate_flight_events` would reject the
    resulting journal (or worse, accept a misleading one).  Outside
    ``repro/obs`` — where the recorder itself lives — code imports only
    the facade names ``repro.obs`` re-exports (``FlightRecorder``,
    ``NULL_FLIGHT_RECORDER``, ``FlightLike``, the loaders) and records
    through ``emit()``.
    """

    id = "RL011"
    name = "flight-integrity"
    contract = "outside repro/obs, flight events are emitted, never hand-built"
    node_types = (ast.Import, ast.ImportFrom, ast.Call)
    # tests forge events to pin the validator's rejections
    domains = frozenset({"library", "benchmarks", "scripts"})

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.in_subpackage("obs"):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.obs.flight" or alias.name.startswith(
                    "repro.obs.flight."
                ):
                    ctx.report(
                        node, self,
                        f"deep import of {alias.name} reaches past the flight "
                        "facade; import FlightRecorder/NULL_FLIGHT_RECORDER "
                        "from repro.obs and record via emit()",
                    )
            return
        if isinstance(node, ast.ImportFrom):
            if node.module is not None and (
                node.module == "repro.obs.flight"
                or node.module.startswith("repro.obs.flight.")
            ):
                ctx.report(
                    node, self,
                    f"deep import from {node.module}; import the flight "
                    "facade names from repro.obs instead",
                )
                return
            if node.module == "repro.obs":
                for alias in node.names:
                    if alias.name == "FlightEvent":
                        ctx.report(
                            node, self,
                            "importing FlightEvent invites hand-built journal "
                            "entries that skip emit()'s schema/seq/pid "
                            "stamping; emit events through a FlightRecorder",
                        )
            return
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None and dotted.split(".")[-1] == "FlightEvent":
                ctx.report(
                    node, self,
                    "hand-built FlightEvent bypasses emit()'s schema/seq/pid "
                    "stamping and breaks the journal's append-only audit "
                    "guarantee; record through FlightRecorder.emit()",
                )
