"""A test that patches a function running inside a cached kernel leaves
the values computed under the patch in that kernel's cache after
monkeypatch undoes it.  Every cache of the package is emptied after each
test that uses monkeypatch, once the patches are undone."""

import pytest

import twistspec


@pytest.fixture(autouse=True)
def _clear_caches_after_monkeypatch(request):
    # autouse fixtures are set up first and torn down last, after the
    # monkeypatch fixture has undone its patches
    yield
    if "monkeypatch" in request.fixturenames:
        twistspec.clear_caches()
