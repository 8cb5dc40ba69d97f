"""Every name a module lists in ``__all__`` must exist in it.

Deleting a public function without its ``__all__`` entry breaks
``from epiresponse import *`` only at import time of the star import, so
check each module directly.
"""

import importlib
import pkgutil

import pytest

import epiresponse

MODULES = ["epiresponse"] + [
    f"epiresponse.{info.name}" for info in pkgutil.iter_modules(epiresponse.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
