"""Every name a module exports exists, so deleting a function without its
`__all__` entry fails here instead of at a user's import."""

import importlib

import pytest

import slicemix


@pytest.mark.parametrize("module", slicemix.__all__)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"slicemix.{module}")
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
