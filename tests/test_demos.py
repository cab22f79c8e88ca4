"""Every script in demos/, and the README Quickstart, runs to completion
against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, cwd):
    # run from cwd, since a demo may write into its working directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    _run(script, tmp_path)


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart", 1)[1].split("```python\n", 1)[1]
    script = tmp_path / "quickstart.py"
    script.write_text(block.split("```", 1)[0], encoding="utf-8")
    _run(script, tmp_path)
