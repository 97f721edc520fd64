import hypothesis
import numpy as np
import pytest

from qphylo.models import prune_matrix, prune_operators
from qphylo.verify import random_density  # noqa: F401  (re-exported to the test modules)

hypothesis.settings.register_profile("suite", max_examples=25, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def random_unitary(rng, n):
    """A random n x n unitary: the QR factor of a complex Gaussian matrix, phases fixed by R."""
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one_stack(params):
    """The ``prune_operators`` stack of one parameter value: its (K, n, n) Kraus operators."""
    return prune_operators(params.family, [params.row], params.pi)[0]


def one_matrix(params):
    """The ``prune_matrix`` W of one parameter value."""
    return prune_matrix(params.family, [params.row], params.pi)[0]
