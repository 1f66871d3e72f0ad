"""Build script for the optional compiled simplex kernel.

The package works without the extension (a pure-Python kernel is selected at
import time), so a failed compile only warns: ``optional=True``.  A source
checkout gets the kernel with ``python setup.py build_ext --inplace``; check
``conescore.kernel_name()``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "conescore._simplex",
            ["src/conescore/_simplex.c"],
            # keep bit-identical arithmetic with the pure-Python kernel
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ]
)
