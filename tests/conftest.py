import pytest

from hiercorr.hierarchy import HierarchicalModel


@pytest.fixture
def no_dense_stack(monkeypatch):
    """Make every request for the dense (m, d, d) basis stack fail."""

    def refuse(self):
        raise AssertionError("a solve path asked for the dense stack")

    monkeypatch.setattr(HierarchicalModel, "basis_matrices", refuse)
    monkeypatch.setattr(HierarchicalModel, "_dense_stack", refuse)
