"""Smoke test for ``scripts/generate_experiments.py``.

The script regenerates the measured tables quoted in EXPERIMENTS.md and
nothing else runs it, so it is run here end to end at a tiny simulated
duration in a fresh interpreter (``PYTHONPATH=src``, as its usage line
documents) and must print every section.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "generate_experiments.py"

SECTIONS = (
    *(f"### fig{n} — " for n in range(5, 10)),
    "### Fig. 7 — priority-level residency",
    "### Fig. 8 — bandwidth gains",
    "### Extension — memory-system energy per policy",
    "### Extension — DVFS governors",
    "### Summary of QoS pass/fail per policy",
)


def test_generate_experiments_prints_every_section(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "--duration-ms", "0.05"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    missing = [section for section in SECTIONS if section not in completed.stdout]
    assert not missing, completed.stdout
