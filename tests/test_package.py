"""The package namespace: what ``from spinsense import *`` exports."""

import inspect

import spinsense


def test_all_lists_every_public_name_once():
    # a deleted API cannot linger in __all__, and a new one cannot miss it
    names = spinsense.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(spinsense, name) for name in names)
    imported = {name for name, obj in vars(spinsense).items()
                if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))}
    assert set(names) == imported
