"""Every name a package exports in ``__all__`` resolves.

A module deleted or renamed without its re-export would otherwise only
fail at ``from <package> import *``.
"""

import importlib

import pytest

PACKAGES = ["repro", "repro.core", "repro.noc", "repro.cmp", "repro.service"]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined attributes: {missing}"
