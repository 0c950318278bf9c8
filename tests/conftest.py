import pytest

import groundlab.perturbation as perturbation


@pytest.fixture
def word_measure_calls(monkeypatch):
    """(machine, scale, depth) of every word_measure run the flows make."""
    calls = []
    real = perturbation.word_measure

    def counted(machine, k, depth=None, budget=None):
        calls.append((machine, k, depth))
        return real(machine, k, depth, budget)

    monkeypatch.setattr(perturbation, "word_measure", counted)
    return calls
