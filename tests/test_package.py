import importlib
import pkgutil

import pytest

import tourney

MODULES = sorted(m.name for m in pkgutil.iter_modules(tourney.__path__))


def test_version():
    assert tourney.__version__ == "0.1.0"


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"tourney.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
