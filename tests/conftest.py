"""Shared fixtures."""

import collections

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name, key=None) replaces owner.name (a module
    function or a class attribute) by a wrapper that counts its calls and
    returns the Counter: keyed by key(*args, **kwargs), or by None when no
    key is given.  The original is restored at teardown."""

    def install(owner, name, key=None):
        calls = collections.Counter()
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[None if key is None else key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install
