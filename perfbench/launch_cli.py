"""Run one squeezelab CLI command with spans around its library calls.

    python3 perfbench/launch_cli.py SPANS_OUT COMMAND [ARGS...]

behaves like ``python -m squeezelab COMMAND [ARGS...]`` and also writes
the spans and per-layer totals of the call to SPANS_OUT as JSON.  The span
``cli.<command>.main`` covers ``cli.main(argv)``; its self time (main
minus the wrapped library calls, i.e. row building and ``_write_table``)
is reported as ``cli.<command>.self_s``.
"""

from __future__ import annotations

import importlib
import json
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    cli = tracer.timed("squeezelab.import", importlib.import_module)("squeezelab.cli")
    saved = spans.install(tracer)
    main_span = f"cli.{argv[0]}.main"
    try:
        code = tracer.timed(main_span, cli.main)(argv)
    except SystemExit as exc:  # argparse usage errors exit from inside main
        code = exc.code
    finally:
        spans.uninstall(saved)
        totals = tracer.totals()
        totals[f"cli.{argv[0]}.self_s"] = totals.pop(main_span + ".self_s", 0.0)
        with open(out, "w") as fh:
            json.dump({"totals": totals, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
