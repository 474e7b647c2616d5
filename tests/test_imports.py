"""Import boundaries: ``import chh`` loads no submodule, and each command only its own."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chh

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"dataclasses", "inspect", "numpy"}
NOT_RUN_BY_REPORT = {"chh.evaluate", "chh.oracle", "chh.tsv", "chh.workload"}


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``code``."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_chh_loads_no_submodule_and_no_heavy_dependency():
    loaded = loaded_by("import chh")
    assert "chh" in loaded
    assert not {name for name in loaded if name.startswith("chh.")}
    assert not loaded & HEAVY


def test_report_leaves_the_modules_it_does_not_run_unloaded(tmp_path):
    sketch = chh.ChhSketch(chh.ChhParams.from_raw("0.5", "0.5", 2, 2))
    sketch.consume([(b"a", b"x"), (b"a", b"y"), (b"b", b"x")])
    snapshot = tmp_path / "s.snap"
    chh.save_sketch(sketch, snapshot)
    for argv in (["report", "--sketch", str(snapshot)], ["solve-params", "--phi1", "0.1",
                 "--phi2", "0.1", "--eps1", "0.05", "--eps2", "0.1"]):
        loaded = loaded_by(f"import chh.cli\nassert chh.cli.main({argv!r}) == 0")
        assert "chh.cli" in loaded
        assert not loaded & (NOT_RUN_BY_REPORT | HEAVY), argv


@pytest.mark.parametrize("name", chh.__all__)
def test_each_exported_name_is_the_object_its_module_defines(name):
    value = getattr(chh, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("chh.")
    assert getattr(module, name) is value
    assert name in dir(chh)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chh.no_such_name
    assert not hasattr(chh, "sketch_from_text")
    with pytest.raises(ImportError):
        from chh import no_such_name  # noqa: F401
