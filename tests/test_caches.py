"""The package's one list of caches, and the clearing after each test that
uses monkeypatch (tests/conftest.py)."""

import importlib
import pkgutil

import twistspec
from twistspec import specfun

# a key no other test reads
NU, T = 2.718281828, 0.3183098862


def test_list_names_every_cache():
    found = set()
    for info in pkgutil.iter_modules(twistspec.__path__):
        module = importlib.import_module(f"twistspec.{info.name}")
        found |= {f for f in vars(module).values()
                  if hasattr(f, "cache_clear")}
    assert found == set(twistspec.cached_functions())


def test_clear_caches_empties_each():
    specfun.hermite_value(NU, T)
    assert specfun._hermite.cache_info().currsize > 0
    twistspec.clear_caches()
    assert all(f.cache_info().currsize == 0
               for f in twistspec.cached_functions())


class TestPatchLeavesNoValue:
    """The two tests run in this order: the first fills the Hermite cache
    under a patched Kummer coefficient, and the second reads the same key
    afterwards.  Without the clearing in conftest it reads the patched
    value."""

    def test_value_under_a_patch(self, monkeypatch):
        fresh = specfun._hermite.__wrapped__(NU, T)
        coeffs = specfun._hermite_coeffs

        def wrong(nu):
            a, b = coeffs(nu)
            return a, b * (1.0 + 1e-6)
        monkeypatch.setattr(specfun, "_hermite_coeffs", wrong)
        assert specfun.hermite_value(NU, T) != fresh

    def test_value_after_the_patch(self):
        fresh = specfun._hermite.__wrapped__(NU, T)
        assert specfun.hermite_value(NU, T) == fresh
