"""Suite-wide test configuration.

Hypothesis runs with a derandomized profile: property tests explore the
same example sequence on every run, so the suite's verdict is
reproducible (a one-off fuzzing win is not worth a flaky CI gate).
Developers hunting for new counterexamples can opt back into fresh
randomness with ``HYPOTHESIS_PROFILE=random``.

The import is guarded so minimal environments (e.g. a docs-only CI job
running ``tests/test_docs.py``) can collect the suite without hypothesis
installed; the property-test modules themselves still require it.
"""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - exercised only without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("deterministic", derandomize=True)
    settings.register_profile("random", derandomize=False)
    settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "deterministic")
    )


@pytest.fixture()
def no_pools(monkeypatch):
    """Make starting a worker pool fail: ``WorkerPool`` and
    ``shared_pool`` (in every module that imports it) raise instead."""
    import repro.sim
    from repro.sim import campaign, pool

    def refuse(*args, **kwargs):
        raise AssertionError(f"a worker pool was started: {args!r}")

    monkeypatch.setattr(pool, "WorkerPool", refuse)
    for module in (pool, repro.sim, campaign):
        monkeypatch.setattr(module, "shared_pool", refuse)
