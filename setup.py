"""Bare setuptools stub; it declares no package metadata.

There is no ``pyproject.toml`` and this ``setup()`` call names no
package, version or console script (``python setup.py --name`` prints
``UNKNOWN``).  Run the code from a checkout with ``PYTHONPATH=src``:
``python -m repro.experiments.runner`` and ``python -m repro.serve.cli``
are the two command-line programs (see README.md).
"""

from setuptools import setup

setup()
