import importlib

import pytest

import ppmetrics

MODULES = ["assignment", "bounds", "errors", "geometry", "metrics", "processes",
           "statistics"]


@pytest.mark.parametrize("module", MODULES)
def test_package_republishes_module_names(module):
    mod = importlib.import_module(f"ppmetrics.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(ppmetrics, name) is getattr(mod, name), name


def test_package_all_is_the_sorted_union():
    union = [name for module in MODULES
             for name in importlib.import_module(f"ppmetrics.{module}").__all__]
    assert len(union) == len(set(union))  # no two modules publish one name
    assert ppmetrics.__all__ == sorted(union)
    for name in ["min_cost_matching", "MAX_TRANSPORT_SIDE", "MAX_USTAT_SUBSETS",
                 "worker_count"]:
        assert name in ppmetrics.__all__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ppmetrics import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ppmetrics.__all__
