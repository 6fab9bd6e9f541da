import numpy as np
import pytest

from hiercorr import maxent
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
    """Make np.linalg.eigh and eigvalsh fail.  A test that needs them again,
    say for a dense reference, lifts this with monkeypatch.undo()."""

    def refuse(*args, **kwargs):
        raise AssertionError("a classical path asked for an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


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
        monkeypatch.setattr(maxent, "_gibbs_eigh", counting("gibbs", maxent._gibbs_eigh))
        return calls

    return start
