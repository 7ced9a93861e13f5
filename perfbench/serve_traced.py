"""Run ``repro`` CLI arguments with the benchmark's layer tracer installed.

    python3 perfbench/serve_traced.py TRACE_DIR serve --netlist ...

The traced daemon and its forked pool workers each rewrite
``TRACE_DIR/<pid>.json`` with their layer books whenever a root span
closes (see :mod:`tracer`).  Everything else is ``repro.cli.main``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tracer

    tracer.install(dump_dir=sys.argv[1])
    from repro.cli import main

    sys.exit(main(sys.argv[2:]))
