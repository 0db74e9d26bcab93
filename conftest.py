"""Pytest setup shared by ``tests/`` and ``perfbench/tests/``.

Hypothesis imports libcst only while it reports a failing example, and
libcst's import raises a DeprecationWarning. Under ``filterwarnings =
error`` or ``python -m pytest -W error`` that warning would turn the report
into an INTERNALERROR and lose the falsifying example, and a command-line
``-W`` overrides any ignore in ``pyproject.toml``. So libcst is imported
once here, with the warning silenced, before any test runs.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
