from setuptools import find_packages, setup

setup(
    name="repro-fuzzy-prophet",
    version="1.1.0",
    description=(
        "Fuzzy Prophet reproduction: probabilistic what-if exploration "
        "with fingerprint reuse and a point-parallel evaluation service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The tested floor: CI's tier-1 matrix starts at 3.11 (its NumPy-floor
    # leg runs there too), and ruff targets py311.
    python_requires=">=3.11",
    # The floor is exercised by CI's tier-1 "numpy floor" leg (ci.yml pins
    # the same version): bitwise parity of the batched fingerprint ladder
    # leans on NumPy's last-axis pairwise summation.
    install_requires=["numpy>=1.23.2"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
