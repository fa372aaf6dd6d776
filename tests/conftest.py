"""Shared fixtures for the test suite."""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from fuzzyloc import simulator
from fuzzyloc.simulator import default_scenario

# Property tests that set no max_examples take it from the loaded profile:
# 300 examples by default, 10,000 under --hypothesis-profile=deep. The other
# property tests set their own.
settings.register_profile("tier1", max_examples=300)
settings.register_profile("deep", max_examples=10_000)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_scenario():
    """Default benchmark shortened to 8 seconds for fast structural tests."""
    return dataclasses.replace(default_scenario(), duration=8.0)


@pytest.fixture
def no_rng_or_process(monkeypatch):
    """Make building a run's rng or starting a worker process fail the test."""
    def no_rng(*args, **kwargs):
        raise AssertionError("an rng was built before the arguments were checked")

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started before the arguments were checked")

    monkeypatch.setattr(simulator.np.random, "SeedSequence", no_rng)
    monkeypatch.setattr(simulator, "Process", no_process)
