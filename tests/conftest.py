"""Child interpreters started by the tests import kdclassical from ``src`` too.

``pythonpath`` in pyproject.toml puts ``src`` on this interpreter's path
only; exporting it keeps a bare ``python -m pytest`` equal to a run with
``PYTHONPATH=src``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
