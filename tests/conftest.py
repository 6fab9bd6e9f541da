import numpy as np
import pytest

from hiercorr import algebra, maxent
from hiercorr.hierarchy import HierarchicalModel


@pytest.fixture
def no_dense_stack(monkeypatch):
    """Make every request for the dense (m, d, d) basis stack fail."""

    def refuse(self):
        raise AssertionError("a solve path asked for the dense stack")

    monkeypatch.setattr(HierarchicalModel, "basis_matrices", refuse)
    monkeypatch.setattr(HierarchicalModel, "_dense_stack", refuse)


@pytest.fixture
def no_eigendecomposition(monkeypatch):
    """no_eigendecomposition(k) makes np.linalg.eigh and eigvalsh fail from
    there on on matrices larger than k x k, batches of them included: 0
    refuses every call, the quantum dimension d_Q of a mixed shape lets
    its blocks through and refuses d x d.  A test that needs them again,
    say for a dense reference, lifts this with monkeypatch.undo()."""

    def start(largest):
        def guarded(fn):
            def wrapped(a, *args, **kwargs):
                if np.shape(a)[-1] > largest:
                    raise AssertionError(f"an eigendecomposition of {np.shape(a)} was asked for")
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", guarded(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", guarded(np.linalg.eigvalsh))

    return start


@pytest.fixture
def no_dense_matrix(monkeypatch):
    """Make algebra.from_blocks fail, and with it the first read of a
    State's dense .matrix; lifted by monkeypatch.undo()."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was built from a block array")

    monkeypatch.setattr(algebra, "from_blocks", refuse)


@pytest.fixture
def count_decompositions(monkeypatch):
    """count_decompositions() counts eigh, eigvalsh and Gibbs-map calls from
    there on and returns the live counts."""

    def start():
        calls = {"eigh": 0, "eigvalsh": 0, "gibbs": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(maxent, "_gibbs_blocks", counting("gibbs", maxent._gibbs_blocks))
        return calls

    return start
