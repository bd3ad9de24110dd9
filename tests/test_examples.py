"""Every example script imports cleanly against the current public API.

The examples only run their workflows under ``__main__`` (they train models
and take minutes), so importing them is cheap; it still resolves every name
they import, so removing or renaming a public name an example uses fails
here instead of at a user's first run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert any(path.name == "serving_demo.py" for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
