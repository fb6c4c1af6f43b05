"""The package's one list of caches, and the clearing after each test that
uses monkeypatch (tests/conftest.py)."""

import importlib
import pkgutil

import twistspec
from twistspec import measures, oracle, specfun

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


class TestPatchLeavesNoRecord:
    """The same pair for the oracle's piece records: the first test fills
    the record of a Gaussian interval under a patched weight, and the
    second reads that record afterwards."""

    DOMAIN = oracle.Domain1D(intervals=((0.2718281828, 2.718281828),),
                             coordinate="cartesian_gauss")
    KEY = ("cartesian_gauss", None, 0.2718281828, 2.718281828, 1100)

    def _weights(self):
        oracle.dirichlet_eigs(self.DOMAIN, count=1)
        return oracle._piece(self.DOMAIN, *self.KEY[2:])[0].weights

    def test_record_under_a_patch(self, monkeypatch):
        fresh = oracle._record.__wrapped__(*self.KEY).weights
        weight = measures.gauss_weight_1d
        monkeypatch.setattr(measures, "gauss_weight_1d",
                            lambda x: weight(x) * (1.0 + 1e-6 * x))
        assert self._weights().tolist() != fresh.tolist()

    def test_record_after_the_patch(self):
        fresh = oracle._record.__wrapped__(*self.KEY).weights
        assert self._weights().tolist() == fresh.tolist()
