import numpy as np
import pytest

from pepcert import solve_rate_params, sweep


@pytest.fixture(scope="session")
def small_sweep():
    """Converged certificates for N = 3..20, shared across tests."""
    reports = list(sweep(range(3, 21)))
    return {rep.cert.params.N: rep for rep in reports}


@pytest.fixture(scope="session")
def params10():
    return solve_rate_params(10)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
