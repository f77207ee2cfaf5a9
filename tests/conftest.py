import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from splitmerge import DenseOperator

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def random_psd_operator(rng, n, scale=1.0):
    """Random dense symmetric PSD operator, eigenvalues O(scale)."""
    m = rng.standard_normal((n, n))
    a = (m @ m.T) * (scale / n)
    return DenseOperator((a + a.T) * 0.5)


def assert_symmetric_psd(op, tol=1e-10):
    """Exactly symmetric, with smallest eigenvalue >= -tol * ||A||_F."""
    dense = op.to_dense()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense)[0] >= -tol * np.linalg.norm(dense)


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) * 0.5


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def diag21():
    return DenseOperator(np.diag([2.0, 1.0]))


@pytest.fixture
def twobytwo():
    return DenseOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
