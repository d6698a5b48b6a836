"""Demo scripts run to completion from a checkout and print what they
printed before: each one's stdout is pinned by its sha256, so a change
to a record's repr or to any printed result shows here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the same under any PYTHONHASHSEED
DEMOS = {
    "01_graphs_and_formats.py":
        "de389e9f529f38aafa3f635dc34dae22218899acf0ca62d8929a530e6406ced9",
    "02_families_and_witnesses.py":
        "2b97d9ed346dd454fc3f47a76337435abd1effe088aa72026f32f498cfaf32b0",
    "03_automorphism_engine.py":
        "56000b18d7352288a67f1538f7956f24fa25049a6e68f720b03a6fa0c545cb06",
    "04_asymmetric_index.py":
        "b39f2d43a0d80c36c185aada903c594e8abbd27872ea18f40e3bf3c736d7bdf3",
    "05_claim_ledger.py":
        "fb4ef24190e246956b7fccc01066c9d818b6f976a54ec02d0ebfaa3db34abc8d",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]
