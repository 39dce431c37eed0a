"""Every name a package of :mod:`repro` lists in ``__all__`` resolves.

A name that is deleted or moved out of a module must take its re-exports
with it: a dangling ``__all__`` entry breaks ``from package import *`` and
advertises a name the package no longer offers.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro", "repro.api"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
