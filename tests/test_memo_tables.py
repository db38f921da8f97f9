"""The process-wide memo tables of the package: which functions keep one,
and that every test starts with an empty level-1 normal table."""

import functools
import importlib
import pkgutil

import numpy as np
import pytest

import tapbound
from tapbound import cover


def _lru_cached():
    """`module.name` of every lru_cache-wrapped function or method defined
    in a tapbound module, by the last component of the module name."""
    found = set()
    for info in pkgutil.walk_packages(tapbound.__path__, "tapbound."):
        module = importlib.import_module(info.name)
        owners = [module] + [obj for obj in vars(module).values()
                             if isinstance(obj, type) and obj.__module__ == module.__name__]
        for owner in owners:
            for name, obj in vars(owner).items():
                if (isinstance(obj, functools._lru_cache_wrapper)
                        and obj.__module__ == module.__name__):
                    found.add(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
    return found


def test_only_the_shared_model_field_and_level1_tables_are_memoized():
    # models, fields and level-1 normals are shared by many replicas and
    # builders; everything else a run needs once is built once per run
    assert _lru_cached() == {"experiments.make_field", "experiments._model",
                             "cover._level1_lambda"}


@pytest.mark.parametrize("visit", ["first", "second"])
def test_each_test_starts_with_an_empty_level1_table(visit):
    # each visit leaves one entry behind, which the autouse fixture must
    # clear before the next
    assert cover._level1_lambda.cache_info().currsize == 0
    cover._level1_lambda(2, 0.1, np.zeros(2).tobytes(), np.ones(2).tobytes())
    assert cover._level1_lambda.cache_info().currsize == 1
