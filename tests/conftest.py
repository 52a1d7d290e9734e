from unittest.mock import Mock

import numpy as np
import pytest

from hypiso.quadspace import QuadraticSpace, classify_membership
from hypiso.spectral import rotation_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def block_rotation(*angles, pad=0):
    """blockdiag(B(t_1), ..., B(t_k), I_pad)."""
    n = 2 * len(angles) + pad
    a = np.eye(n)
    for i, theta in enumerate(angles):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation_matrix(theta)
    return a


def boost_matrix(n, s):
    """Boost of rapidity s in the last two coordinates of R^(n+1)."""
    m = np.eye(n + 1)
    m[-2, -2] = m[-1, -1] = np.cosh(s)
    m[-2, -1] = m[-1, -2] = np.sinh(s)
    return m


def lorentz(mat, eps=1e-8):
    mat = np.asarray(mat, dtype=float)
    return classify_membership(QuadraticSpace(mat.shape[0] - 1), mat, eps)


def maxabs(x):
    return float(np.max(np.abs(x)))


def spy(monkeypatch, owner, name):
    """Replace owner.name with a mock that counts calls and forwards them."""
    mock = Mock(wraps=getattr(owner, name))
    monkeypatch.setattr(owner, name, mock)
    return mock
