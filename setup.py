"""Build script for the optional compiled kernel extension.

The package works without the extension: msetsig._kernels falls back to the
numpy implementation when the compiled module is absent, so the extension is
marked optional and a failed compile does not fail the install.

The kernels are summed in a fixed sequential order, so the build forbids
contracting a*b+c into a fused multiply-add (which rounds once instead of
twice; the low-pass update has that form) and adds no -ffast-math or
-march flag. Loops start on 32-byte boundaries, which changes no result: on
CPUs that cannot cache a loop whose closing branch crosses such a boundary,
a short loop's speed otherwise depends on where unrelated code puts it (the
simulator's delay row ran 1.5x slower after an edit elsewhere in the file).
tests/test_kernels.py builds the extension through this file, so a change of
flags here is what its bitwise checks test.
"""

from setuptools import Extension, setup

ext = Extension(
    "msetsig._kernels._core",
    ["src/msetsig/_kernels/_core.c"],
    extra_compile_args=["-O3", "-ffp-contract=off", "-falign-loops=32"],
)
ext.optional = True

setup(ext_modules=[ext])
