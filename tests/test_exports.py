"""Every name that ``mkvlab`` and its submodules export resolves."""

import importlib
import pkgutil

import pytest

import mkvlab

MODULES = ["mkvlab"] + [
    f"mkvlab.{info.name}"
    for info in pkgutil.iter_modules(mkvlab.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
