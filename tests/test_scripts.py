"""The experiment scripts in scripts/ run end to end on small inputs, so
an API change that breaks one of them fails here."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


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


def _compare_cli():
    spec = importlib.util.spec_from_file_location(
        "compare_cli", SCRIPTS / "compare_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def test_compare_cli_finds_no_difference_on_one_tree():
    compare = _compare_cli()
    for argv, cached in ((["kl-poly", "--u", "1234", "--w", "3412"], True),
                         (["ih-poincare", "--w", "3412", "--J", "9"], False)):
        assert compare(str(SRC), str(SRC), argv, cached) == []


def test_compare_cli_reports_a_changed_output(tmp_path):
    # a tree whose CLI appends a blank line to every result
    shutil.copytree(SRC / "heckelab", tmp_path / "heckelab")
    cli = tmp_path / "heckelab" / "cli.py"
    text = cli.read_text()
    assert text.count("    print(out)\n") == 1
    cli.write_text(text.replace("    print(out)\n",
                                '    print(out + "\\n")\n'))
    argv = ["kl-poly", "--u", "1234", "--w", "3412"]
    diffs = _compare_cli()(str(SRC), str(tmp_path), argv, True)
    assert [d.split(": ")[0] for d in diffs] == [
        "kl-poly --u 1234 --w 3412 (run 1)",
        "kl-poly --u 1234 --w 3412 (run 2)"]
    assert all(": stdout differs: b'1+q\\n' against b'1+q\\n\\n'" in d
               for d in diffs)
