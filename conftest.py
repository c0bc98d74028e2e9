"""Test set-up shared by tests/ and perfbench/.

perfbench's Setup deletes the linfiso modules from sys.modules and
imports them afresh.  A test that runs after it and monkeypatches a
module it imports by name (`from linfiso import projection`) would then
patch a fresh module object that the functions its test module imported
at collection do not read.  So each test gets back the linfiso modules
that were loaded before it ran."""

import sys

import pytest


def _linfiso_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "linfiso" or name.startswith("linfiso.")
    }


@pytest.fixture(autouse=True)
def _restore_linfiso_modules():
    before = _linfiso_modules()
    yield
    for name in _linfiso_modules().keys() - before.keys():
        del sys.modules[name]
    sys.modules.update(before)
