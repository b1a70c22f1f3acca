"""Probe the host from inside every process the benchmark times.

Python imports ``sitecustomize`` from the import path at start-up.  The
benchmark puts this directory on ``PYTHONPATH`` for its children (the
``python -m arquiver.cli`` queries and the workers), so each one probes the
host every few milliseconds while it runs and reports the probes as its last
stderr line at exit; see ``../hostspeed.py``.  Nothing else in them changes.
"""

import atexit
import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "hostspeed", Path(__file__).resolve().parent.parent / "hostspeed.py")
hostspeed = importlib.util.module_from_spec(_spec)
sys.modules["hostspeed"] = hostspeed
_spec.loader.exec_module(hostspeed)
hostspeed.start_sampling()
atexit.register(hostspeed.report_at_exit)
