"""The package root's export list matches what the root imports."""

import ast
from pathlib import Path

import schedsec


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
