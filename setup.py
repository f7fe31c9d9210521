"""Setup shim for environments without the ``wheel`` package.

PEP 660 editable installs need ``wheel``; this offline environment lacks it,
so ``pip install -e . --no-use-pep517`` falls back to the legacy
``setup.py develop`` path provided here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
