"""What the package's three command lines share (``python -m repro``,
``python -m repro.analysis``, ``python -m repro.farm``)."""

from __future__ import annotations

import os
import sys
from typing import Callable

__all__ = ["exit_status"]


def exit_status(command: Callable[[], int]) -> int:
    """Run ``command`` and return its exit status, stdout flushed.

    When the reader closed stdout early (``python -m repro ... | head``),
    stdout's descriptor is pointed at devnull, so the flush at exit
    cannot raise again, and the status is 1, as Python's own EPIPE exit
    is: no ``BrokenPipeError`` traceback."""
    try:
        status = command()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
