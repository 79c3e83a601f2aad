"""Run the msetsig CLI from the checkout's src/, as the console script would.

    python3 perfbench/launch.py [--spans FILE] COMMAND [ARGS...]

With ``--spans FILE`` the tracer's wrappers are installed before
``msetsig.cli.main`` runs, and the spans and counters are written to FILE
when it returns. Interpreter startup and imports stay inside the child's
wall time either way.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    if argv[:1] != ["--spans"]:
        from msetsig.cli import main as cli_main

        return cli_main(argv)
    sys.path.insert(0, HERE)
    import tracer as trace_mod

    import msetsig.cli

    tracer = trace_mod.Tracer()
    trace_mod.install(tracer)
    try:
        return tracer.wrap("cli.main", msetsig.cli.main)(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
