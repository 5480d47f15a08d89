"""dynmatch benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds nothing: it imports the ``dynmatch`` package from ``src/`` of the
checkout it sits in, and refuses to run (exit 2, no result line) when that
source is missing, rather than measuring some other installed copy.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_source():
    if not (SRC / "dynmatch" / "__init__.py").is_file():
        print(f"error: no dynmatch source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import dynmatch

    if Path(dynmatch.__file__).resolve().parent != SRC / "dynmatch":
        print(f"error: imported dynmatch from {dynmatch.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    _import_source()
    from dmbench.main import main

    sys.exit(main())
