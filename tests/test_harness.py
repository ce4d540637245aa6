import hashlib
import json
import sys
from functools import cached_property

import pytest

import subembed as se
from subembed import harness
from subembed.harness import (
    THEOREM_IDS,
    THEOREMS,
    check_instance,
    cyclics_branch,
    instances,
    maximals_branch,
    resolve_theorem_ids,
    run_corpus,
    standard_pool,
)

from conftest import apart_corpus


def run_all(theorem_id, group):
    insts, truncated = instances(theorem_id, group)
    return [check_instance(i, group) for i in insts], truncated


def test_prop31_bindings_on_a4(by_name):
    a4 = by_name["A4"]
    insts, truncated = instances("prop-3.1", a4)
    assert not truncated
    bindings = {(i.bindings["p"], i.bindings["P_order"]) for i in insts}
    assert (2, 4) in bindings  # the Klein four subgroup
    assert (2, 1) in bindings and (3, 1) in bindings  # trivial-P bindings


def test_prop31_klein_in_a4_is_vacuous(by_name):
    a4 = by_name["A4"]
    insts, _ = run_all("prop-3.1", a4)
    klein = [i for i in insts if i.bindings["P_order"] == 4]
    assert klein and all(i.verdict == "vacuous" for i in klein)
    trivial = [i for i in insts if i.bindings["P_order"] == 1]
    assert trivial and all(i.verdict == "confirmed" for i in trivial)


def test_thm15_s3xc2_has_confirmed_c6_sandwich(by_name):
    g = by_name["S3xC2"]
    assert se.f_star(g).order == 6
    insts, _ = run_all("thm-1.5", g)
    full = [
        i
        for i in insts
        if i.bindings["E_order"] == 12 and i.bindings["X_order"] == 6
    ]
    assert full
    assert all(i.verdict == "confirmed" for i in full)
    assert all(i.bindings["F_star_order"] == 6 for i in full)


def test_thm15_s4_klein_sandwich_is_vacuous(by_name):
    s4 = by_name["S4"]
    # the three maximal (order 2) subgroups of V4 all fail the property:
    # their normalizers have index 3 in S4
    insts, _ = run_all("thm-1.5", s4)
    v4_x = [i for i in insts if i.bindings["X_order"] == 4]
    assert v4_x and all(i.verdict == "vacuous" for i in v4_x)


def test_prop41_a5_partial_pi_item_is_vacuous_for_sylow5(by_name):
    a5 = by_name["A5"]
    insts, _ = run_all("prop-4.1", a5)
    sylow5_ppi = [
        i
        for i in insts
        if i.bindings["p"] == 5
        and i.bindings["H_order"] == 5
        and i.bindings["item"] == "partial-pi"
    ]
    assert sylow5_ppi and all(i.verdict == "vacuous" for i in sylow5_ppi)


def test_theorem_rows_read_the_stated_binding_and_branch(by_name, monkeypatch):
    # In A4 an order-2 subgroup passes the maximals branch and fails the
    # cyclics branch, and the Klein four subgroup fails both; no corpus
    # binding tells these rows apart, so they are called directly.
    a4 = by_name["A4"]
    trivial, klein = se.normal_lattice(a4).nodes[:2]
    c2 = se.span(a4, [klein.indices[1]])
    assert maximals_branch(a4, c2, 2) and not cyclics_branch(a4, c2, 2)
    assert not maximals_branch(a4, klein, 2) and not cyclics_branch(a4, klein, 2)
    cases = [
        ("prop-3.1", {"P": c2}, True),
        ("prop-3.3", {"P": c2}, False),
        ("prop-3.2", {"E": c2}, True),
        ("prop-3.4", {"E": c2}, False),
        ("prop-3.5", {"E": c2}, True),
        ("thm-1.5", {"E": klein, "X": klein}, False),
        ("thm-1.5", {"E": klein, "X": c2}, True),  # cyclic Sylows are exempt
        ("thm-1.6", {"E": trivial, "X": klein}, False),
        ("thm-1.6", {"E": klein, "X": trivial}, True),
    ]
    for tid, bound, expected in cases:
        assert THEOREMS[tid].hypothesis(a4, {"p": 2, **bound}) == expected, tid
    # no subgroup found fails the maximals branch and passes the cyclics
    # branch, so "either" is checked with stand-in branches
    monkeypatch.setattr(harness, "maximals_branch", lambda group, sub, p: False)
    monkeypatch.setattr(harness, "cyclics_branch", lambda group, sub, p: True)
    for tid in ("prop-3.5", "thm-1.6"):
        assert THEOREMS[tid].hypothesis(a4, {"p": 2, "E": klein, "X": klein}), tid


def test_trivial_e_instances_confirm(by_name):
    insts, _ = run_all("prop-3.5", by_name["S4"])
    trivial = [i for i in insts if i.bindings["E_order"] == 1]
    assert trivial and all(i.verdict == "confirmed" for i in trivial)


def test_instance_cap_truncates(by_name):
    insts, truncated = instances("prop-4.1", by_name["C2^3"], limit=5)
    assert truncated
    assert len(insts) == 5


def test_standard_pool_is_deduped_and_deterministic(by_name):
    s4 = by_name["S4"]
    pool1 = standard_pool(s4)
    pool2 = standard_pool(s4)
    assert [(p, h.mask) for p, h in pool1] == [(p, h.mask) for p, h in pool2]
    assert len({(p, h.mask) for p, h in pool1}) == len(pool1)
    for p, h in pool1:
        assert se.p_part(h.order, p) == h.order


def test_resolve_theorem_ids():
    assert resolve_theorem_ids("all") == list(THEOREM_IDS)
    assert resolve_theorem_ids("thm-1.5") == ["thm-1.5"]
    with pytest.raises(ValueError):
        resolve_theorem_ids("thm-9.9")


def test_verdict_invariant():
    for name, group in apart_corpus(24):
        for tid in THEOREM_IDS:
            insts, _ = run_all(tid, group)
            for inst in insts:
                if inst.verdict == "COUNTEREXAMPLE":
                    assert inst.hypothesis_holds and inst.conclusion_holds is False
                elif inst.verdict == "confirmed":
                    assert inst.hypothesis_holds and inst.conclusion_holds
                else:
                    assert inst.verdict == "vacuous"
                    assert not inst.hypothesis_holds
                    assert inst.conclusion_holds is None


def test_run_corpus_report_schema(tmp_path):
    out = tmp_path / "report.json"
    report = run_corpus(["prop-4.1"], max_order=20, out_path=str(out))
    data = json.loads(out.read_text())
    assert set(data) == {"tool_version", "corpus", "theorems", "timing_ms"}
    assert set(data["corpus"]) == {"max_order", "group_count"}
    assert data["corpus"]["max_order"] == 20
    entry = data["theorems"][0]
    for key in ("id", "instances", "vacuous", "confirmed", "counterexamples", "examples"):
        assert key in entry
    assert entry["instances"] == entry["vacuous"] + entry["confirmed"] + entry["counterexamples"]
    assert report.total_counterexamples == 0


def test_run_corpus_trivial_corpus_has_zero_instances(tmp_path):
    out = tmp_path / "empty.json"
    report = run_corpus(list(THEOREM_IDS), max_order=1, out_path=str(out))
    assert report.total_counterexamples == 0
    assert all(s.instances == 0 for s in report.theorems)
    data = json.loads(out.read_text())
    assert data["corpus"]["group_count"] == 1


def test_run_corpus_deterministic_modulo_timing(tmp_path):
    r1 = run_corpus(["prop-3.1", "prop-4.1"], max_order=30, jobs=1)
    # r1 released every group it checked, so r2 starts with every cache cold
    r2 = run_corpus(["prop-3.1", "prop-4.1"], max_order=30)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["timing_ms"] = d2["timing_ms"] = 0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    with pytest.raises(ValueError, match="jobs must be 1"):
        run_corpus(["prop-3.1"], max_order=30, jobs=2)


# SHA-256 of the max-order-48 report without ``timing_ms`` (json, indent=2,
# sort_keys=True, trailing newline); any change in verdicts, audits, examples
# or their order changes it
SMALL_RUN_SHA256 = "52b83f0a6d17aba0730a1b0be9a6dfee6d54f735ec548a28d7dc280e6d0cb298"


def _digest(report) -> str:
    body = report.to_dict()
    body.pop("timing_ms")
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_small_run_has_zero_counterexamples():
    report = run_corpus(list(THEOREM_IDS), max_order=48)
    assert report.total_counterexamples == 0
    for summary in report.theorems:
        assert summary.counterexample_bindings == []
    assert _digest(report) == SMALL_RUN_SHA256


def test_run_releases_every_group():
    lazy = {n for n, v in vars(se.FiniteGroup).items() if isinstance(v, cached_property)}
    first = run_corpus(list(THEOREM_IDS), max_order=48)
    for name, group in se.builtin_corpus(48):
        assert group.cache == {}, name
        assert not lazy & set(vars(group)), name
    # the released groups compute everything again, to the same report
    again = run_corpus(list(THEOREM_IDS), max_order=48)
    assert _digest(first) == _digest(again) == SMALL_RUN_SHA256


def test_run_builds_no_child_group(monkeypatch):
    """Every structure a run checks is read inside G: no group is generated,
    no quotient built and no subgroup made a group of its own, in theorem
    runs (S5 and A5 included) or in ``s_qn_embedded``, whose H need not be
    a p-group or normal."""
    # building groups generates them; the runs and queries must not
    s5, s6 = dict(se.builtin_corpus(120))["S5"], se.build(se.Sym(6))
    modules = [m for name, m in sys.modules.items() if name.startswith("subembed")]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in [
        ("generate_group", se.groups.generate_group),
        ("quotient", se.normal.quotient),
        ("subgroup_as_group", se.normal.subgroup_as_group),
    ]:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    report = run_corpus(list(THEOREM_IDS), max_order=48)
    assert _digest(report) == SMALL_RUN_SHA256
    run_corpus(list(THEOREM_IDS), max_order=120)
    for group in (s5, s6):
        # the pools are p-groups, the lattice nodes are not
        pool = [h for _, h in standard_pool(group)] + list(se.normal_lattice(group).nodes)
        for h in pool:
            se.s_qn_embedded(group, h)
    assert calls == []
