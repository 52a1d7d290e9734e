"""The hypiso CLI with the kernel counter installed (traced runs only).

    python bench/cli_traced.py classify FILE...

Same arguments and exit code as ``python -m hypiso.cli``.
"""

import runpy
import sys

from kernels import KernelCounter

if __name__ == "__main__":
    sys.argv[0] = "hypiso"
    with KernelCounter():
        runpy.run_module("hypiso.cli", run_name="__main__", alter_sys=True)
