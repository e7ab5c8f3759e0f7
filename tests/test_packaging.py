"""setup.py and pyproject.toml declare the same console scripts."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _setup_py_scripts():
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "console_scripts":
                    entries = ast.literal_eval(value)
                    return dict(
                        (part.strip() for part in entry.split("=", 1))
                        for entry in entries
                    )
    raise AssertionError("setup.py declares no console_scripts")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_console_scripts_match():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)["project"]["scripts"]
    assert _setup_py_scripts() == pyproject
