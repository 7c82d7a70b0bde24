"""Smoke test: every demo runs to completion, and the law-checking demo
prints exactly the report kept in ``golden/law_checking.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


def test_law_checking_demo_output_is_unchanged():
    proc = _run(ROOT / "demos" / "law_checking.py")
    golden = (Path(__file__).parent / "golden" / "law_checking.txt").read_text(encoding="utf-8")
    assert proc.stdout == golden
