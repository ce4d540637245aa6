"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Budgets are wall-clock upper bounds and are asserted.
"""

import time

import subembed as se
from subembed import ResourceCapError
from subembed.harness import THEOREM_IDS, run_corpus
from subembed.subgroups import Subgroup, prime_divisors

import property_checks as pc
from conftest import brute_u_hypercentre, factor_is_abelian, soluble_by_chief_factors


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_semidirect_1875_regression(group1875):
    start = time.perf_counter()
    g = group1875
    checks = {}
    checks["order"] = g.order == 1875

    a_span = se.span(g, [g.gen_indices[0]])
    h = se.span(g, [g.gen_indices[0], g.gen_indices[2]])
    checks["normalizer index"] = g.order // se.normalizer(g, a_span).order == 3
    checks["partial-s-pi"] = se.partial_s_pi(g, h, 5).holds
    checks["gen-cap fails"] = not se.gen_cap(g, h).holds
    lat = se.normal_lattice(g)
    checks["avoided minimal normal"] = any(
        (lat.nodes[m].mask & h.mask) == 1 for m in lat.up[0]
    )
    elapsed = time.perf_counter() - start
    checks["runtime < 60s"] = elapsed < 60
    _report(
        1,
        all(checks.values()),
        f"order-1875 regression {checks} in {elapsed:.1f}s",
    )


def test_criterion_2_a5_regression(by_name):
    start = time.perf_counter()
    a5 = by_name["A5"]
    h = se.sylow(a5, 5)
    index = a5.order // se.normalizer(a5, h).order
    ok = (
        se.partial_s_pi(a5, h, 5).holds
        and not se.partial_pi(a5, h).holds
        and index == 6
        and not se.is_pi_number(index, (5,))
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(2, ok, f"A5 Sylow-5 regression in {elapsed:.3f}s")


def test_criterion_3_theorem_suite(tmp_path):
    start = time.perf_counter()
    report = run_corpus(
        list(THEOREM_IDS),
        max_order=400,
        include_example_1875=True,
        out_path=str(tmp_path / "verify.json"),
    )
    elapsed = time.perf_counter() - start
    by_id = {s.id: s for s in report.theorems}
    floors = {tid: by_id[tid].confirmed for tid in ("thm-1.5", "prop-3.1", "prop-3.2", "prop-3.5")}
    ok = (
        report.total_counterexamples == 0
        and all(count >= 1 for count in floors.values())
        and elapsed < 600
    )
    _report(
        3,
        ok,
        f"all theorems, max-order 400 + order-1875: "
        f"{report.total_counterexamples} counterexamples, confirmed floors {floors}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_4_proposition_41_scan(tmp_path):
    start = time.perf_counter()
    report = run_corpus(
        ["prop-4.1"], max_order=200, out_path=str(tmp_path / "p41.json")
    )
    elapsed = time.perf_counter() - start
    summary = report.theorems[0]
    ok = summary.counterexamples == 0 and elapsed < 300
    _report(
        4,
        ok,
        f"implication scan at max-order 200: {summary.instances} instances, "
        f"{summary.counterexamples} violations, {elapsed:.0f}s",
    )


def test_criterion_5_closure_properties():
    corpus = se.builtin_corpus(120)
    violations = []
    for name, group in corpus:
        violations += pc.restriction_violations(group)
        violations += pc.quotient_transfer_violations(group)
        violations += pc.maximal_transfer_violations(group)
    _report(
        5,
        violations == [],
        f"restriction/quotient/maximal-transfer over {len(corpus)} groups "
        f"(order <= 120): {len(violations)} violations",
    )


def test_criterion_6_oracle_equivalences(group1875):
    corpus = se.builtin_corpus(400)
    problems = []

    for name, group in corpus:
        if group.order <= 200 and se.u_hypercentre(group) != brute_u_hypercentre(group):
            problems.append(("u_hypercentre", name))

    for name, group in corpus + [("(C5^2xC5^2):C3", group1875)]:
        if soluble_by_chief_factors(group) != se.is_soluble(group):
            problems.append(("solubility", name))

    for name, group in corpus:
        primes = prime_divisors(group.order)
        if len(primes) != 1 or group.order > 256:
            continue
        p = primes[0]
        whole = Subgroup.whole(group)
        inter = (1 << group.order) - 1
        for m in se.p_group_maximal_subgroups(whole, p):
            inter &= m.mask
        if se.frattini_p(whole, p).mask != inter:
            problems.append(("frattini", name))

    for name, group in corpus:
        try:
            series = se.chief_series_enumerate(group, 200)
        except ResourceCapError:
            continue
        lat = se.normal_lattice(group)

        def signature(s):
            return sorted(
                (
                    lat.nodes[b].order // lat.nodes[a].order,
                    factor_is_abelian(group, lat.nodes[a], lat.nodes[b]),
                )
                for a, b in zip(s.chain, s.chain[1:])
            )

        first = signature(series[0])
        if any(signature(s) != first for s in series[1:]):
            problems.append(("jordan-holder", name))

    _report(6, problems == [], f"oracle equivalences: problems {problems}")


def test_criterion_7_transfer_property_suites():
    corpus = se.builtin_corpus(200)
    violations = []
    for name, group in corpus:
        violations += pc.derived_p_nilpotency_violations(group)
        violations += pc.omega_exponent_violations(group)
        violations += pc.p_nilpotency_lifting_violations(group)
        violations += pc.f_star_forcing_violations(group)
    _report(
        7,
        violations == [],
        f"derived/omega/lifting/forcing suites over {len(corpus)} groups "
        f"(order <= 200): {len(violations)} violations",
    )
