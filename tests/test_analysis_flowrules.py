"""Good/bad fixtures for the whole-program flow rules (RL012–RL014).

The RL012 section carries the ISSUE-10 acceptance pair: the bad fixture
is the PR-8 stale-plan bug written the natural way — and the behavioral
test at the bottom executes that exact pattern against a real
``SolverCache`` to show the plan it serves really is stale.  The old
syntactic catalog (RL001–RL011) passes the bad fixture; only the
salt-flow rule catches it.
"""

from textwrap import dedent

import numpy as np

from repro.analysis import lint_source, resolve_rules

LIB = "src/repro/sched/planner.py"  # a library path outside repro/core
CORE = "src/repro/core/mod.py"
TESTS = "tests/test_mod.py"
BENCH = "benchmarks/bench_mod.py"

OLD_CATALOG = resolve_rules([f"RL{i:03d}" for i in range(1, 12) if i != 9])

BAD_UNSALTED_SOLVE = """
from repro.engine import FoldCache


def plan(costs, policy):
    cache = FoldCache()
    return cache.solve(costs, 16)
"""

GOOD_SALTED_SOLVE = """
from repro.engine import FoldCache
from repro.core.policy import policy_fingerprint


def plan(costs, policy):
    cache = FoldCache()
    return cache.solve(costs, 16, salt=policy_fingerprint(policy))
"""


def ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path=LIB, rules=None):
    return lint_source(dedent(source), path, rules=rules)


# ------------------------------------------------------------------ RL012
def test_rl012_flags_the_unsalted_solve_the_old_catalog_passes():
    assert ids(lint(BAD_UNSALTED_SOLVE)) == ["RL012"]
    # the whole point: ten syntactic rules stare straight past this bug
    assert lint(BAD_UNSALTED_SOLVE, rules=OLD_CATALOG) == []


def test_rl012_requires_the_salt_to_carry_taint_not_merely_exist():
    src = BAD_UNSALTED_SOLVE.replace(
        "cache.solve(costs, 16)", 'cache.solve(costs, 16, salt=b"")'
    )
    fs = lint(src)
    assert ids(fs) == ["RL012"]
    assert "does not derive from a policy fingerprint" in fs[0].message


def test_rl012_passes_a_fingerprint_derived_salt():
    assert lint(GOOD_SALTED_SOLVE) == []


def test_rl012_accepts_salt_named_values():
    src = """
    def plan(shared, cache, costs):
        return cache.solve(costs, 16, salt=shared.policy_salt)
    """
    assert lint(src) == []


def test_rl012_checks_convolve_identity_keys():
    bad = """
    def fold(cache, a, b, tag):
        return cache.convolve(a, b, key=("pair", tag, len(a), len(b)))
    """
    good = """
    def fold(cache, a, b, tag, policy_salt):
        return cache.convolve(a, b, key=("pair", tag, policy_salt))
    """
    assert ids(lint(bad)) == ["RL012"]
    assert lint(good) == []


def test_rl012_is_scoped_out_of_core_and_defining_modules():
    # core's dynamic oracle solves raw default-policy curves (cf. RL010)
    assert lint(BAD_UNSALTED_SOLVE, path=CORE) == []
    defining = """
    class FoldCache:
        def solve(self, costs, n):
            return None


    def inner(cache, costs):
        return cache.solve(costs, 16)
    """
    assert lint(defining) == []


def test_rl012_domain_excludes_tests_and_benchmarks():
    # benches price the raw cache layers deliberately unsalted; tests pin
    # the unsalted behaviour on purpose
    assert lint(BAD_UNSALTED_SOLVE, path=TESTS) == []
    assert lint(BAD_UNSALTED_SOLVE, path=BENCH) == []


def test_rl012_suppression_is_line_scoped():
    src = BAD_UNSALTED_SOLVE.replace(
        "return cache.solve(costs, 16)",
        "return cache.solve(costs, 16)  # repro-lint: disable=RL012",
    )
    assert lint(src) == []
    # a suppression for a different rule does not silence it
    other = BAD_UNSALTED_SOLVE.replace(
        "return cache.solve(costs, 16)",
        "return cache.solve(costs, 16)  # repro-lint: disable=RL011",
    )
    assert ids(lint(other)) == ["RL012"]


# ------------------------------------------------------------------ RL013
def test_rl013_flags_nondet_values_crossing_the_pool_boundary():
    src = """
    import os
    from concurrent.futures import ProcessPoolExecutor


    def _init(token):
        pass


    def work(x, token):
        return x


    def run(items):
        token = os.urandom(8)
        with ProcessPoolExecutor(initializer=_init, initargs=(token,)) as pool:
            return [pool.submit(work, x, token) for x in items]
    """
    fs = lint(src)
    assert ids(fs) == ["RL013", "RL013"]
    assert all("nondeterministic" in f.message for f in fs)


def test_rl013_flags_unpicklable_payloads():
    src = """
    from concurrent.futures import ProcessPoolExecutor


    def work(x, fh):
        return x


    def run(items, path):
        handle = open(path)
        with ProcessPoolExecutor() as pool:
            return [pool.submit(work, x, handle) for x in items]
    """
    fs = lint(src)
    assert ids(fs) == ["RL013"]
    assert "pickle" in fs[0].message


def test_rl013_passes_plain_deterministic_payloads():
    src = """
    from concurrent.futures import ProcessPoolExecutor


    def _init(profile):
        pass


    def work(x, seed):
        return x


    def run(items, profile):
        with ProcessPoolExecutor(initializer=_init, initargs=(profile,)) as pool:
            return [pool.submit(work, x, 42) for x in items]
    """
    assert lint(src) == []


def test_rl013_applies_in_benchmarks_but_not_tests():
    src = """
    import os
    from concurrent.futures import ProcessPoolExecutor


    def _init(token):
        pass


    def run():
        token = os.urandom(8)
        pool = ProcessPoolExecutor(initializer=_init, initargs=(token,))
        return pool
    """
    assert ids(lint(src, path=BENCH)) == ["RL013"]
    assert lint(src, path=TESTS) == []


# ------------------------------------------------------------------ RL014
def test_rl014_flags_hash_input_from_dict_views():
    src = """
    from hashlib import blake2b


    def fingerprint(d):
        h = blake2b()
        h.update(repr(tuple(d.items())).encode())
        return h.hexdigest()
    """
    fs = lint(src)
    assert ids(fs) == ["RL014"]
    assert "sorted" in fs[0].message


def test_rl014_flags_joins_and_key_kwargs_over_sets():
    src = """
    def emit(cache, costs, names):
        label = ",".join({n.strip() for n in names})
        return cache.solve(costs, 16, key=tuple(set(names)))
    """
    fs = lint(src, rules=resolve_rules(["RL014"]))
    assert ids(fs) == ["RL014", "RL014"]


def test_rl014_flags_key_named_assignments_built_from_views():
    src = """
    def keyof(d):
        key = tuple(d.keys())
        return key
    """
    fs = lint(src)
    assert ids(fs) == ["RL014"]
    assert "'key'" in fs[0].message


def test_rl014_sorted_launders_every_sink():
    src = """
    from hashlib import blake2b


    def fingerprint(d, names):
        h = blake2b()
        h.update(repr(tuple(sorted(d.items()))).encode())
        label = ",".join(sorted({n.strip() for n in names}))
        key = tuple(sorted(d.keys()))
        return h.hexdigest(), label, key
    """
    assert lint(src) == []


def test_rl014_ignores_per_element_values_inside_loops():
    # iterating a dict is fine when each element is consumed on its own —
    # only materialized orderings are flagged
    src = """
    def tally(d):
        out = {}
        for name, value in d.items():
            out[name] = value + 1
        return out
    """
    assert lint(src) == []


def test_rl014_suppression_is_line_scoped():
    src = """
    def keyof(d):
        key = tuple(d.keys())  # repro-lint: disable=RL014
        return key
    """
    assert lint(src) == []


# ----------------------------------------------- the behavioral reproducer
def test_the_rl012_bad_fixture_is_a_real_stale_plan():
    """Run the bad fixture's pattern for real: it serves a stale plan.

    Two objective policies compile different cost curves that collide
    under a coarse fingerprint quantum.  The unsalted solve — exactly
    what ``BAD_UNSALTED_SOLVE`` does — hands policy B policy A's plan;
    the salted solve (the ``GOOD_SALTED_SOLVE`` shape) re-solves.
    """
    from repro.core.policy import DEFAULT_POLICY, ObjectivePolicy, compile_costs
    from repro.locality.mrc import MissRatioCurve
    from repro.online.solver_cache import SolverCache

    def mrc(ratios):
        return MissRatioCurve(np.asarray(ratios, dtype=float), n_accesses=100, name="p")

    mrcs = [mrc([1.0, 0.9, 0.1, 0.0]), mrc([1.0, 0.4, 0.3, 0.0])]
    default_costs = compile_costs(mrcs, DEFAULT_POLICY)
    weighted = ObjectivePolicy(weights=(1.0, 100.0))
    weighted_costs = compile_costs(mrcs, weighted)
    quantum = 1e9  # snaps every curve to the same lattice point

    # the bug, as written in BAD_UNSALTED_SOLVE: no salt threaded
    buggy = SolverCache(quantum=quantum)
    plan_a = buggy.solve(default_costs, 3, salt=b"")
    stale = buggy.solve(weighted_costs, 3, salt=b"")
    assert buggy.hits == 1  # policy B was served policy A's memo entry
    assert np.array_equal(stale.allocation, plan_a.allocation)

    # the fix, as written in GOOD_SALTED_SOLVE: fingerprint-derived salt
    salted = SolverCache(quantum=quantum)
    salted.solve(default_costs, 3, salt=DEFAULT_POLICY.fingerprint())
    fresh = salted.solve(weighted_costs, 3, salt=weighted.fingerprint())
    assert salted.hits == 0 and salted.misses == 2
    assert not np.array_equal(fresh.allocation, plan_a.allocation)
