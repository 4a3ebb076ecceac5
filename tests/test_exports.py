"""Every public export list names something its module defines."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["cwsoc", "cwsoc.model", "cwsoc.samplers", "cwsoc.limit_law", "cwsoc.verification"])
def test_every_export_is_defined_and_star_importable(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
