"""Legacy setup shim.

The project metadata lives in ``pyproject.toml``; this file only exists for
the setuptools commands that build no wheel: ``python setup.py develop``
installs the package in editable mode offline, where the ``wheel`` package
that PEP 660 editable installs (and pip's ``--no-use-pep517`` option)
require is unavailable.
"""

from setuptools import setup

setup()
