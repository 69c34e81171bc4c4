"""Tests for the repo-invariant rules (L001-L005) of the static checker
(repro.tools.lint); the protocol rules are in test_dmverify.py."""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import analyze_paths
from repro.tools.lint import check, default_target, lint_tracked_pyc, main


def lint_source(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_paths([path]).findings


def rules(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# The repo itself is clean (the CI contract)
# ---------------------------------------------------------------------------

def test_repo_is_clean():
    findings = check([default_target()]).findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exit_zero_on_repo(capsys):
    assert main([]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.tools.lint"],
        capture_output=True, text=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stdout + result.stderr
    assert "lint: clean" in result.stdout


# ---------------------------------------------------------------------------
# Each rule fires on a synthetic violation
# ---------------------------------------------------------------------------

def test_l001_direct_memory_access(tmp_path):
    findings = lint_source(tmp_path, """
        def sneaky(cluster, addr):
            return cluster.memories[0].read(addr, 8)
    """)
    assert rules(findings) == ["L001"]
    assert "bypasses the executors" in findings[0].message


def test_l001_all_data_plane_methods(tmp_path):
    findings = lint_source(tmp_path, """
        def sneaky(memory):
            memory.write(0, b"x")
            memory.write_u64(0, 1)
            memory.cas_u64(0, 0, 1)
            memory.faa_u64(0, 1)
    """)
    assert rules(findings) == ["L001"] * 4


def test_l001_ignores_unrelated_receivers(tmp_path):
    findings = lint_source(tmp_path, """
        def fine(file, socket):
            file.read(8)
            socket.write(b"x")
    """)
    assert findings == []


def test_l001_exempt_inside_dm(tmp_path):
    package = tmp_path / "repro" / "dm"
    package.mkdir(parents=True)
    path = package / "impl.py"
    path.write_text("def f(memory):\n    return memory.read(0, 8)\n")
    assert analyze_paths([tmp_path / "repro"]).findings == []


def test_l002_discarded_cas(tmp_path):
    findings = lint_source(tmp_path, """
        def proto(addr):
            yield CasOp(addr, 0, 1)
    """)
    assert rules(findings) == ["L002"]
    assert "swapped flag" in findings[0].message


def test_l002_consumed_cas_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def proto(addr):
            swapped, _ = yield CasOp(addr, 0, 1)
            return swapped
    """)
    assert findings == []


def test_l003_empty_batch(tmp_path):
    findings = lint_source(tmp_path, """
        def proto():
            yield Batch([])
    """)
    assert rules(findings) == ["L003"]


def test_l003_nonempty_batch_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def proto(ops):
            yield Batch(ops)
            yield Batch([ReadOp(0, 8)])
    """)
    assert findings == []


def test_l004_builtin_raise(tmp_path):
    findings = lint_source(tmp_path, """
        def f(x):
            if x < 0:
                raise ValueError("negative")
            raise KeyError(x)
    """)
    assert rules(findings) == ["L004", "L004"]


def test_l004_repro_errors_clean(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.errors import InvalidArgument

        def f(x):
            if x < 0:
                raise InvalidArgument("negative")
            raise NotImplementedError  # conventional, allowed
    """)
    assert findings == []


def test_bare_reraise_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def f():
            try:
                g()
            except Exception:
                raise
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# Suppressions and the CLI contract
# ---------------------------------------------------------------------------

def test_line_pragma_suppresses(tmp_path):
    findings = lint_source(tmp_path, """
        def control_plane(memory):
            memory.write(0, b"x")  # lint: disable=L001
    """)
    assert findings == []


def test_file_pragma_suppresses(tmp_path):
    findings = lint_source(tmp_path, """
        # lint: disable-file=L001
        def control_plane(memory):
            memory.write(0, b"x")
            memory.write_u64(8, 1)
    """)
    assert findings == []


def test_pragma_only_silences_named_rule(tmp_path):
    findings = lint_source(tmp_path, """
        def f(memory):
            memory.write(0, b"x")  # lint: disable=L004
    """)
    assert rules(findings) == ["L001"]


def test_cli_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    raise ValueError('x')\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "L004" in out
    assert "1 finding(s)" in out


def test_missing_path_reports_cleanly(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_syntax_error_reported_not_crashed(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = analyze_paths([bad]).findings
    assert rules(findings) == ["L000"]


# ---------------------------------------------------------------------------
# L005: tracked bytecode
# ---------------------------------------------------------------------------

def test_l005_repo_has_no_tracked_pyc():
    assert lint_tracked_pyc() == []


def test_l005_fires_on_tracked_pyc(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    pycache = tmp_path / "pkg" / "__pycache__"
    pycache.mkdir(parents=True)
    (pycache / "m.cpython-312.pyc").write_bytes(b"\x00")
    (tmp_path / "pkg" / "m.py").write_text("x = 1\n")
    subprocess.run(["git", "-C", str(tmp_path), "add", "-f", "."],
                   check=True)
    findings = lint_tracked_pyc(tmp_path)
    assert rules(findings) == ["L005"]
    assert "bytecode is build output" in findings[0].message
    assert findings[0].path.endswith(".pyc")


def test_l005_silent_outside_a_git_checkout(tmp_path):
    # An exported tree (sdist, plain copy) has nothing to check.
    assert lint_tracked_pyc(tmp_path) == []
