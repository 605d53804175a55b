"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 ...

The scene-build timer goes in before ``repro`` is imported and the
layer wrappers before the ``serve`` entry point runs; the recorded
spans are written to ``SPANS.json`` when the server exits.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.tracing import (  # noqa: E402
    Tracer,
    install,
    install_import_timer,
    write_json,
)


def main(argv: "list[str]") -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    install_import_timer(tracer)
    from repro import cli

    install(tracer, server=True)
    try:
        return cli.main(serve_argv)
    finally:
        write_json(spans_path, tracer.dump())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
