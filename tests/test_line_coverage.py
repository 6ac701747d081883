"""tools/line_coverage.py names the executable lines that no test reached."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

FIXTURE = '''def sign(x):
    if x < 0:
        return -1
    return 1
'''


def _tool():
    """tools/line_coverage.py as a module (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location("line_coverage",
                                                  ROOT / "tools" / "line_coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(tmp_path: Path) -> Path:
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "sign.py").write_text(FIXTURE, encoding="utf-8")
    return package


def test_executable_lines_are_the_compiled_ones(tmp_path):
    tool = _tool()
    assert tool.executable_lines(_fixture(tmp_path) / "sign.py") == {1, 2, 3, 4}


def test_an_unreached_branch_is_the_one_line_reported(tmp_path):
    tool = _tool()
    package = _fixture(tmp_path)

    def run():
        spec = importlib.util.spec_from_file_location("sign", package / "sign.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(3)

    result, reached = tool.reached_lines(package, run)
    assert result == 1
    assert tool.unreached(package, reached) == [
        ((package / "sign.py").resolve(), 3, "return -1")]


def test_the_report_runs_pytest_in_process(tmp_path):
    _fixture(tmp_path)
    (tmp_path / "test_sign.py").write_text(
        "from pkg.sign import sign\n\n\ndef test_positive():\n    assert sign(3) == 1\n",
        encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"), "--source",
         str(tmp_path / "pkg"), "-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path),
         str(tmp_path / "test_sign.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
        env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "1 passed" in proc.stdout
    assert lines[-2:] == ["pkg/sign.py:3: return -1", "1 of 4 executable lines unreached"]
