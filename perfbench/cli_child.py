"""Bootstrap for one traced ``mixent`` verb process.

Usage: ``python cli_child.py <spans.json> <verb> [args...]`` with the
package's ``src`` on ``PYTHONPATH``.  It times ``import mixent.cli``,
installs the span hooks, runs ``mixent.cli.main`` inside a ``cli.main`` span,
writes the aggregate to ``<spans.json>`` and exits with ``main``'s code.
"""

import json
import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import mixent.cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    except spans.HookMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    tracer.open("cli.main")
    try:
        code = mixent.cli.main(argv)
    finally:
        main_s = tracer.close()
    with open(out, "w") as f:
        json.dump({"import_s": import_s, "main_s": main_s, "trace": tracer.to_dict()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
