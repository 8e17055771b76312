"""The package's public names: each loads its module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeta_workbench


def test_every_public_name_is_its_modules_own_object():
    for name in zeta_workbench.__all__:
        value = getattr(zeta_workbench, name)
        assert value.__module__.startswith("zeta_workbench."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zeta_workbench.no_such_name
    with pytest.raises(ImportError):
        from zeta_workbench import no_such_name  # noqa: F401


def test_dir_covers_all():
    assert set(zeta_workbench.__all__) <= set(dir(zeta_workbench))


LAZY_PROBE = """
import json, sys
import zeta_workbench
before = sorted(m for m in sys.modules if m.startswith("zeta_workbench."))
from zeta_workbench import SchemaError, wrap_angle
import zeta_workbench.cache
after = sorted(m for m in sys.modules if m.startswith("zeta_workbench."))
print(json.dumps([before, after]))
"""


def test_a_name_loads_only_its_module():
    env = dict(os.environ, PYTHONPATH=str(Path(zeta_workbench.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE], env=env, capture_output=True, text=True, check=True
    )
    before, after = json.loads(result.stdout)
    assert before == []
    assert after == [f"zeta_workbench.{m}" for m in ("cache", "errors", "names", "spectra")]


def test_the_package_has_no_runtime_dependency():
    # numpy is an oracle of the tests alone: the package declares no
    # dependency, and none of its modules names numpy
    tomllib = pytest.importorskip("tomllib")
    package = Path(zeta_workbench.__file__).parent
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []
    assert "numpy>=1.24" in project["project"]["optional-dependencies"]["test"]
    for module in sorted(package.glob("*.py")):
        assert "numpy" not in module.read_text(encoding="utf-8"), module.name
