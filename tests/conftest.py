"""The muskat processes some tests start import the package from this checkout's ``src``.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the test process's own
import path; child processes read PYTHONPATH instead.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
