"""Setup shared by every test module.

pyproject.toml puts `src/` on the test process's import path; exporting it
in PYTHONPATH as well lets subprocesses started by the tests
(`python -m phasealg`) import the same checkout without an install.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
