"""Each demo script must run clean and print exactly its pinned output;
they double as executable documentation."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
GOLDEN_DIR = ROOT / "tests" / "golden"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    golden = GOLDEN_DIR / f"demo_{script.name[:2]}.txt"
    assert proc.stdout == golden.read_bytes(), f"{script.name} output differs from {golden.name}"


def test_all_demos_present():
    assert len(DEMOS) == 5
    assert sorted(GOLDEN_DIR.glob("demo_*.txt")) == [
        GOLDEN_DIR / f"demo_{script.name[:2]}.txt" for script in DEMOS]
