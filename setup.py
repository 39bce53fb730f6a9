"""Legacy setup shim so `pip install -e .` works without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Pure-Python reproduction of Ringo: Interactive Graph Analytics "
        "on Big-Memory Machines (SIGMOD 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
