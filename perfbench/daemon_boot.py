"""Start the compile daemon with the benchmark's shims installed.

    python perfbench/daemon_boot.py --spans FILE serve --store DIR --port 0

installs :func:`tracer.install` and :func:`tracer.install_service`,
registers the garbage-collector callback, runs ``python -m repro``'s
``main`` with the remaining arguments and, once the daemon has shut
down, writes the recorded spans to ``FILE``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_repo_sources  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: daemon_boot.py --spans FILE <repro arguments>", file=sys.stderr)
        return 2
    spans, rest = argv[1], argv[2:]
    use_repo_sources()
    import tracer as tr
    from repro.__main__ import main as repro_main

    recorder = tr.Tracer()
    tr.install(recorder)
    tr.install_service(recorder)
    try:
        return repro_main(rest)
    finally:
        recorder.uninstall()
        recorder.write(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
