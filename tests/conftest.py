import pytest

from pqdec import decoupling as dec


@pytest.fixture
def batch_width(monkeypatch):
    """Set how many restarts every search runs in lockstep (None: the default width)."""
    run = dec._run_restarts

    def set_width(width):
        width = dec.LOCKSTEP_WIDTH if width is None else width
        monkeypatch.setattr(dec, "_run_restarts", lambda *args: run(*args, width=width))

    return set_width
