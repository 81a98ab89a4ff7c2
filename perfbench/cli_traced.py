"""Run `certiroot` CLI arguments under the benchmark's hooks.

    python perfbench/cli_traced.py SPANS_OUT roots --poly p.json ...

Prints exactly what `python -m certiroot roots ...` prints and exits with its
status; the spans recorded on the way are written to SPANS_OUT as JSON.
"""

import sys

import tracer
import workloads


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    mods = workloads.load_certiroot()
    trace = tracer.Tracer()
    trace.install(mods)
    with trace.span("cli.main"):
        code = mods.cli.main(argv)
    sys.stdout.flush()
    trace.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
