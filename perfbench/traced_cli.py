"""Run the fockthermo CLI with spans recorded, for the traced benchmark pass.

Usage: python3 perfbench/traced_cli.py TRACE_DIR <fockthermo arguments...>

Equivalent to ``python3 -m fockthermo.cli <arguments...>`` with
``src/`` on the path, except that ``tracer.install`` wraps the public calls
first; pool workers forked by the sweep inherit the wrappers and write their
own span files when they exit.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fockthermo.cli  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    trace = tracer.install(sys.argv[1])
    try:
        return fockthermo.cli.main(sys.argv[2:])
    finally:
        trace.dump()


if __name__ == "__main__":
    sys.exit(main())
