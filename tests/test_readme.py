import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    # The example ends by printing the measured primary error against its bound.
    measured, _, bound = result.stdout.splitlines()[-1].partition(" <= ")
    assert float(measured) <= float(bound)
