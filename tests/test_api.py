"""The exported names of the package and its public submodules resolve."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import trialalloc

MODULES = ["trialalloc"] + sorted(
    f"trialalloc.{info.name}" for info in pkgutil.iter_modules(trialalloc.__path__)
    if not info.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
