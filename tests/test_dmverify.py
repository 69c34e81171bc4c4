"""Tests for the path-sensitive protocol rules (S001-S006) of the static
checker (repro.tools.lint); the L-rules are in test_lint.py.

The fixture corpus under ``tests/fixtures/dmverify/`` is the rule
contract: every file in ``bad/`` must be flagged with exactly the rule
its filename names (``s001_*.py`` -> S001), and every file in
``clean/`` is a near-miss that must produce zero findings.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, build_function_cfg
from repro.analysis.cfg import EXC, RAISE
from repro.tools.lint import default_target, main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "dmverify"
BAD = sorted((FIXTURES / "bad").glob("*.py"))
CLEAN = sorted((FIXTURES / "clean").glob("*.py"))


def expected_rule(path):
    return path.name[:4].upper()  # s003_write_after_release -> S003


def subprocess_env(**extra):
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# The fixture corpus is the rule contract
# ---------------------------------------------------------------------------

def test_corpus_is_present():
    assert len(BAD) >= 12 and len(CLEAN) >= 12
    for rule in ("s001", "s002", "s003", "s004", "s005", "s006"):
        assert sum(p.name.startswith(rule) for p in BAD) >= 2, rule
        assert sum(p.name.startswith(
            rule.replace("s0", "c0")) for p in CLEAN) >= 2, rule


@pytest.mark.parametrize("path", BAD, ids=[p.stem for p in BAD])
def test_bad_fixture_flagged(path):
    report = analyze_paths([path])
    rules = {f.rule for f in report.findings}
    rendered = "\n".join(f.render() for f in report.findings)
    assert expected_rule(path) in rules, \
        f"{path.name}: expected {expected_rule(path)}, got:\n{rendered}"
    assert rules == {expected_rule(path)}, \
        f"{path.name}: collateral findings:\n{rendered}"


@pytest.mark.parametrize("path", CLEAN, ids=[p.stem for p in CLEAN])
def test_clean_fixture_clean(path):
    report = analyze_paths([path])
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


def test_s001_witness_narrates_the_leak():
    path = FIXTURES / "bad" / "s001_branch_leak.py"
    report = analyze_paths([path])
    witness = "\n".join(report.findings[0].witness)
    assert "lock CAS" in witness
    assert report.findings[0].witness  # non-empty path witness


def test_s001_exception_exit_is_distinguished():
    path = FIXTURES / "bad" / "s001_exception_leak.py"
    report = analyze_paths([path])
    messages = " / ".join(f.message for f in report.findings)
    assert "exception" in messages


# ---------------------------------------------------------------------------
# The repo itself verifies clean (the CI contract)
# ---------------------------------------------------------------------------

def test_repo_is_clean():
    report = analyze_paths([default_target()])
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert report.functions > 500  # the analysis actually ran


def test_cli_exit_zero_on_repo(capsys):
    assert main([]) == 0
    assert "lint: clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI contract: exit codes, JSON, determinism
# ---------------------------------------------------------------------------

def test_cli_nonzero_on_findings(capsys):
    assert main([str(FIXTURES / "bad" / "s005_dead_verb_expr.py")]) == 1
    out = capsys.readouterr().out
    assert "S005" in out
    assert "finding(s)" in out


def test_missing_path_reports_cleanly(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_bad_options_exit_two(capsys):
    assert main(["--format"]) == 2
    assert main(["--bogus"]) == 2
    assert "error" in capsys.readouterr().err


def test_json_output_mirrors_exit_code(capsys):
    code = main(["--format=json",
                 str(FIXTURES / "bad" / "s002_untagged_lock_cas.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["exit_code"] == 1
    assert payload["clean"] is False
    assert payload["counts"] == {"S002": 1}
    assert payload["findings"][0]["rule"] == "S002"


def test_json_output_on_clean_tree(capsys):
    code = main(["--format=json",
                 str(FIXTURES / "clean" / "c003_write_inside_window.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["exit_code"] == 0
    assert payload["clean"] is True
    assert payload["findings"] == []


def test_json_is_deterministic_across_hash_seeds():
    """Two runs under different hash seeds emit byte-identical JSON."""
    outs = []
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.lint",
             "--format=json", "src/repro"],
            capture_output=True, text=True, cwd=str(REPO),
            env=subprocess_env(PYTHONHASHSEED=seed))
        assert result.returncode == 0, result.stdout + result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]


def test_syntax_error_reported_not_crashed(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = analyze_paths([bad])
    assert [f.rule for f in report.findings] == ["L000"]


# ---------------------------------------------------------------------------
# Suppressions: the one ``# lint:`` pragma namespace covers the S-rules
# ---------------------------------------------------------------------------

def verify_source(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_paths([path]).findings


def test_line_pragma_suppresses(tmp_path):
    findings = verify_source(tmp_path, """
        def proto(addr):
            ops = [WriteOp(addr, b"x")]  # lint: disable=S005
            yield ReadOp(addr, 8)
    """)
    assert findings == []


def test_file_pragma_suppresses(tmp_path):
    findings = verify_source(tmp_path, """
        # lint: disable-file=S005
        def proto(addr):
            WriteOp(addr, b"a")
            WriteOp(addr + 8, b"b")
            yield ReadOp(addr, 8)
    """)
    assert findings == []


def test_pragma_only_silences_named_rule(tmp_path):
    findings = verify_source(tmp_path, """
        def proto(addr):
            WriteOp(addr, b"x")  # lint: disable=S001
            yield ReadOp(addr, 8)
    """)
    assert [f.rule for f in findings] == ["S005"]


def test_lint_pragma_silences_s004(tmp_path):
    findings = verify_source(tmp_path, """
        def proto(addr):
            for attempt in range(7):  # lint: disable=S004
                swapped, _ = yield CasOp(addr, 0, 1, lease=("release",))
                if swapped:
                    return
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# CFG spot checks: the shapes the flow rules depend on
# ---------------------------------------------------------------------------

def build(source, name="f"):
    import ast
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    return build_function_cfg(func, name)


def test_cfg_finally_runs_on_both_routes():
    cfg = build("""
        def f(addr):
            try:
                yield ReadOp(addr, 8)
            finally:
                yield WriteOp(addr, b"x", lease=("release",))
    """)
    releases = [n for n in cfg.nodes
                if n.stmt is not None and "release" in
                __import__("ast").unparse(n.stmt)]
    assert len(releases) >= 2  # inlined once per exit route


def test_cfg_yield_in_try_gets_exception_edge():
    cfg = build("""
        def f(addr):
            try:
                yield ReadOp(addr, 8)
            except Exception:
                return
    """)
    assert any(label == EXC for node in cfg.nodes
               for label, _ in node.succ)


def test_cfg_yield_outside_try_has_no_exception_edge():
    cfg = build("""
        def f(addr):
            yield ReadOp(addr, 8)
    """)
    assert not any(label == EXC for node in cfg.nodes
                   for label, _ in node.succ)


def test_cfg_raise_creates_exit_node():
    cfg = build("""
        def f(x):
            raise ProtocolError(x)
    """)
    assert any(node.kind == RAISE for node in cfg.nodes)


# ---------------------------------------------------------------------------
# mypy (when available - CI installs it; the base image may not have it)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    __import__("importlib.util", fromlist=["util"]).find_spec("mypy")
    is None,
    reason="mypy not installed in this environment")
def test_mypy_clean_on_typed_tiers():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         "-p", "repro"],
        capture_output=True, text=True, cwd=str(REPO),
        env=dict(os.environ, PYTHONPATH="src"))
    assert result.returncode == 0, result.stdout + result.stderr
