import os

# One BLAS thread, as in CI: idle OpenBLAS workers that wake mid-test can push
# a wall-clock-capped acceptance test past its cap.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from pqdec import decoupling as dec  # noqa: E402


@pytest.fixture
def batch_width(monkeypatch):
    """Set how many restarts every search runs in lockstep (None: the default width)."""
    run = dec._run_restarts

    def set_width(width):
        width = dec.LOCKSTEP_WIDTH if width is None else width
        monkeypatch.setattr(dec, "_run_restarts", lambda *args: run(*args, width=width))

    return set_width
