"""Legacy setuptools entry point.

The offline sandbox has no `wheel` package, so PEP 660 editable installs
(which build an editable wheel) fail with "invalid command 'bdist_wheel'".
With a setup.py and no [build-system] table, pip falls back to the legacy
`setup.py develop` editable path, which needs no wheel.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["kernels.c", "kernels.h"]},  # compiled on first import (repro.kernels)
    python_requires=">=3.11",
)
