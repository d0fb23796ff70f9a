"""Shared fixtures and helpers for the test suite.

Set ``REPRO_VERIFY=1`` to run every machine-fixture-based test on a
:class:`repro.lint.VerifiedMachine`, which asserts the BSP discipline
invariants (conservation, monotone counters) at every superstep.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.lint.verify import VerifiedMachine

VERIFY = os.environ.get("REPRO_VERIFY", "") not in ("", "0")


#: the machine class the fixtures build (``REPRO_VERIFY`` switches it)
MACHINE_CLS = VerifiedMachine if VERIFY else BSPMachine


def make_machine(p: int, **kwargs) -> BSPMachine:
    """Machine factory honouring the ``REPRO_VERIFY`` switch."""
    return MACHINE_CLS(p, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def machine4():
    return make_machine(4)


@pytest.fixture
def machine8():
    return make_machine(8)


@pytest.fixture
def machine16():
    return make_machine(16)


@pytest.fixture
def bsp_machine_factory():
    """Factory fixture: ``bsp_machine_factory(p)`` -> (possibly verified) machine."""
    return make_machine
