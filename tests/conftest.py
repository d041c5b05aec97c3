import os

import numpy as np
import pytest

# hypothesis caches the constants it parses from source files in its storage
# directory even without an example database; an unwritable path keeps the
# suite from leaving a .hypothesis/ directory behind
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)

from hypothesis import settings  # noqa: E402

from su11otto import EngineConfig

# property tests draw the same examples on every run, keep no example
# database and time no single example
settings.register_profile("su11otto", derandomize=True, database=None, deadline=None)
settings.load_profile("su11otto")


@pytest.fixture(scope="session")
def fig3_config() -> EngineConfig:
    """The default operating point used throughout: omega1=0.1, omega2=1,
    t_hot=2, t_cold=0.01 in units of omega2 (hbar = k_B = 1)."""
    return EngineConfig(omega1=0.1, omega2=1.0, t_hot=2.0, t_cold=0.01)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
