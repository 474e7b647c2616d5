"""`chh build` with MgProbe installed, to measure what tracing costs.

    python3 perfbench/traced_build.py build --in stream.tsv ... --out sk.snap

Takes the arguments of `chh` and exits with its exit code.
"""

import sys

from chh.cli import main
from layers import MgProbe

if __name__ == "__main__":
    with MgProbe():
        code = main(sys.argv[1:])
    sys.exit(code)
