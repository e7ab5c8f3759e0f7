"""Compatibility shim for environments without PEP 660 editable support.

``pip install -e .`` uses pyproject.toml; this file lets
``python setup.py develop`` work offline (no wheel package) with identical
metadata, including every console script.
"""

from setuptools import setup

setup(
    entry_points={
        "console_scripts": [
            "run-looppoint = repro.cli:main",
            "repro-lint = repro.lint.cli:main",
            "repro-obs = repro.obs.cli:main",
        ],
    }
)
