import json

import pytest

from subembed.cli import main


@pytest.fixture
def a5_file(tmp_path):
    path = tmp_path / "a5.grp"
    path.write_text("group A5\nexpr Alt(5)\n")
    return str(path)


@pytest.fixture
def s4_file(tmp_path):
    path = tmp_path / "s4.grp"
    path.write_text("group S4\ndegree 4\ngen (1 2)\ngen (1 2 3 4)\n")
    return str(path)


def test_check_partial_s_pi_a5(a5_file, capsys):
    code = main(
        [
            "check",
            "--group", a5_file,
            "--subgroup", "(1 2 3 4 5)",
            "--property", "partial-s-pi",
            "--prime", "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "holds" in out


def test_check_partial_pi_json(a5_file, capsys):
    code = main(
        [
            "check",
            "--group", a5_file,
            "--subgroup", "(1 2 3 4 5)",
            "--property", "partial-pi",
            "--format", "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] is False
    assert data["property"] == "partial-pi"


def test_check_requires_prime_for_partial_s_pi(a5_file, capsys):
    code = main(
        [
            "check",
            "--group", a5_file,
            "--subgroup", "(1 2 3 4 5)",
            "--property", "partial-s-pi",
        ]
    )
    assert code == 2


def test_check_rejects_prime_for_other_properties(a5_file, capsys):
    code = main(
        [
            "check",
            "--group", a5_file,
            "--subgroup", "(1 2 3 4 5)",
            "--property", "partial-pi",
            "--prime", "7",
        ]
    )
    assert code == 2
    assert "--prime applies only to partial-s-pi" in capsys.readouterr().err


def test_check_rejects_subgroup_not_in_group(a5_file):
    code = main(
        [
            "check",
            "--group", a5_file,
            "--subgroup", "(1 2)",  # odd permutation, not in A5
            "--property", "cap",
        ]
    )
    assert code == 2


def test_bad_group_file_exits_2(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("group bad\ndegree 5\ngen (1 7)\n")
    code = main(
        ["check", "--group", str(path), "--subgroup", "", "--property", "cap"]
    )
    assert code == 2


def test_usage_error_exits_2(a5_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--group", a5_file, "--subgroup", "", "--property", "bogus"])
    assert exc.value.code == 2


def test_invariants_text_and_json(s4_file, capsys):
    assert main(["invariants", "--group", s4_file]) == 0
    text = capsys.readouterr().out
    assert "supersoluble: False" in text
    assert main(["invariants", "--group", s4_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 24
    assert data["fitting_order"] == 4
    assert data["primes"]["2"]["sylow_order"] == 8


def test_chief_command(s4_file, capsys):
    assert main(["chief", "--group", s4_file]) == 0
    out = capsys.readouterr().out
    assert "chief series: 1" in out
    assert "4, 3, 2" in out


def test_chief_enumerate_limit_exit_3(tmp_path, capsys):
    path = tmp_path / "v4.grp"
    path.write_text("group V4\nexpr ElemAbelian(2,2)\n")
    code = main(["chief", "--group", str(path), "--enumerate-limit", "2"])
    assert code == 3


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--theorem", "prop-4.1",
            "--max-order", "20",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["theorems"][0]["id"] == "prop-4.1"
    assert data["theorems"][0]["counterexamples"] == 0
    stdout = capsys.readouterr().out
    assert "prop-4.1" in stdout


def test_verify_rejects_unknown_theorem(tmp_path):
    code = main(
        ["verify", "--theorem", "thm-9.9", "--out", str(tmp_path / "r.json")]
    )
    assert code == 2


def test_verify_exits_4_on_counterexample(tmp_path, monkeypatch):
    import subembed.cli as cli
    from subembed.harness import RunReport, TheoremSummary

    def fake_run_corpus(*args, **kwargs):
        summary = TheoremSummary(id="prop-4.1", instances=1, counterexamples=1)
        return RunReport("0.0", 10, 1, [summary], 0)

    monkeypatch.setattr(cli, "run_corpus", fake_run_corpus)
    code = main(
        ["verify", "--theorem", "prop-4.1", "--out", str(tmp_path / "r.json")]
    )
    assert code == 4


def test_invariant_failure_exits_5(s4_file, closure_drops_an_element, capsys):
    code = main(["invariants", "--group", s4_file])
    assert code == 5
    assert "internal error" in capsys.readouterr().err


def test_catalog_list(capsys):
    assert main(["catalog", "list", "--max-order", "30"]) == 0
    out = capsys.readouterr().out
    assert "Q8" in out
    assert "SL(2,3)" in out
    assert "A5" not in out
