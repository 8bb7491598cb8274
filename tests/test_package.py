import os
import pathlib
import subprocess
import sys

import ekor_atlas

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_public_names_resolve():
    missing = [name for name in ekor_atlas.__all__
               if not hasattr(ekor_atlas, name)]
    assert not missing


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_survey_basic_runs():
    done = run_script("scripts/survey_basic.py", "--max-g", "2")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 4


def test_export_hasse_runs(tmp_path):
    done = run_script("scripts/export_hasse.py", "--max-g", "1",
                      "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "adm_g1_iwahori.dot").read_text().startswith("digraph")
