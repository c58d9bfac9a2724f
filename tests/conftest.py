import pytest

import stefan_reciprocal as sr


@pytest.fixture(scope="session")
def baseline_params():
    return sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.5, delta=1.0)


@pytest.fixture(scope="session")
def baseline_field(baseline_params):
    return sr.StefanField.from_params(baseline_params)


@pytest.fixture(scope="session")
def baseline_psi(baseline_field):
    return sr.PsiField(baseline_field)


@pytest.fixture(scope="session")
def zero_tm0_field():
    return sr.StefanField.from_params(sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.0))


@pytest.fixture(scope="session")
def zero_tm0_psi(zero_tm0_field):
    return sr.PsiField(zero_tm0_field)
