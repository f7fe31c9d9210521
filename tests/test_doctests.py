"""Run every doctest in the library as part of the test suite.

Doctests double as API documentation; this keeps them honest.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _iter_module_names():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield info.name


MODULES = sorted(set(_iter_module_names()))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )


def test_module_list_covers_packages():
    """Sanity: the walker found every subpackage."""
    found = {name.split(".")[1] for name in MODULES if "." in name}
    assert {"gf2", "gf2m", "lfsr", "memory", "faults",
            "march", "prt", "analysis", "sim", "server"} <= found


def test_module_list_covers_batched_subsystem():
    """The bit-packed engine's modules are doctested like everything else."""
    assert {"repro.sim.batched", "repro.sim.campaign",
            "repro.memory.packed"} <= set(MODULES)


@pytest.mark.parametrize(
    "module_name",
    [name for name in MODULES
     if name.startswith(("repro.sim", "repro.memory"))],
)
def test_sim_and_memory_modules_document_their_surface(module_name):
    """Every repro.sim / repro.memory module declares a docstring and
    ``__all__`` (the surface the architecture guide documents)."""
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert getattr(module, "__all__", None), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} not resolvable"
