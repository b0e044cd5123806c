"""The package root's export list matches what the root imports, its
version has one source, and importing it stays light."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import schedsec
from schedsec.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_names_the_root_binds():
    tree = ast.parse(Path(schedsec.__file__).read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert len(schedsec.__all__) == len(set(schedsec.__all__))
    assert sorted(schedsec.__all__) == sorted(bound)
    # a star import resolves every listed name or raises AttributeError
    namespace = {}
    exec("from schedsec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(schedsec.__all__)


def test_manifest_and_pyproject_read_the_one_version_literal(tmp_path):
    out = tmp_path / "v"
    assert main(["defend", "construct", "--mode", "shortest-period",
                 "-n", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["versions"]["schedsec"] == schedsec.__version__
    if sys.version_info >= (3, 11):
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert (pyproject["tool"]["setuptools"]["dynamic"]["version"]
                == {"attr": "schedsec.__version__"})


def test_import_loads_no_distribution_metadata_reader():
    # importlib.metadata and the email parser it reads METADATA with cost
    # 20-30 ms of every start-up; only modules the import itself adds count,
    # so a site hook that loaded them already is no failure
    code = ("import sys; before = set(sys.modules); "
            "import schedsec, schedsec.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "schedsec.cli" in added
    assert not [name for name in added
                if name.split(".")[0] == "email"
                or name.startswith("importlib.metadata")]
