import pytest

from pqdec import decoupling as dec


@pytest.fixture
def batch_width(monkeypatch):
    """Set how many restarts every search runs in lockstep (default: all)."""
    run = dec._run_restarts

    def set_width(width):
        monkeypatch.setattr(dec, "_run_restarts", lambda *args: run(*args, width=width))

    return set_width
