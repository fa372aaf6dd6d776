"""Shared fixtures for the test suite."""

import dataclasses

import numpy as np
import pytest

from fuzzyloc import simulator
from fuzzyloc.simulator import default_scenario


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
