"""Setup shared by every test module.

pyproject.toml puts `src/` on the test process's import path; exporting it
in PYTHONPATH as well lets subprocesses started by the tests
(`python -m phasealg`) import the same checkout without an install.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to explain it, and that module's import of
libcst raises a DeprecationWarning. pyproject.toml turns DeprecationWarning
into an error, which would make pytest print INTERNALERROR instead of the
falsifying example; importing the module here once, with that warning
ignored, keeps the report.
"""

import os
import warnings

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the explanation too
        pass
