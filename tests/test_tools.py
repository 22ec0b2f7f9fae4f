"""Tests for the maintenance tooling."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from collect_bench_tables import extract_tables  # noqa: E402


SAMPLE = """\
some pytest noise
FIG3: 1-segment greedy on the Fig. 3 instance
connection   span  segment
        c1  [1,3]      s21
.                                                       [100%]
more noise
LP60: LP relaxation success on feasible random instances
 M   T  rate
60  25   8/8
------------------------------ benchmark: 2 tests -----------------------
irrelevant trailer
"""


def test_extract_finds_blocks():
    out = extract_tables(SAMPLE)
    assert "FIG3:" in out
    assert "LP60:" in out
    assert "s21" in out
    assert "8/8" in out


def test_extract_drops_noise():
    out = extract_tables(SAMPLE)
    assert "pytest noise" not in out
    assert "irrelevant trailer" not in out
    assert "benchmark: 2 tests" not in out


def test_blocks_separated_by_blank_line():
    out = extract_tables(SAMPLE)
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2


def test_profile_hotpaths_chip_mode():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "profile_hotpaths.py"), "--chip",
         "--top", "5", "--scale", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "run_chip_pipeline" in proc.stdout
