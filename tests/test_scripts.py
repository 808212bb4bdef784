"""The experiment scripts in scripts/ run end to end on small inputs, so
an API change that breaks one of them fails here."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("scan_conjectures.py", ["--max-n", "3"]),
    ("kl_benchmark.py", ["--max-n", "4"]),
    ("character_sweep.py", ["--cases", "5"]),
])
def test_script_runs(script, args):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
