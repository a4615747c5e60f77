"""Run the qlehmer CLI with layer spans installed.

    python3 bench/traced_cli.py SRC_DIR CLI_ARG...

SRC_DIR is the source tree the imported package must come from.  The CLI's
stdout is left untouched; after the CLI returns, one stderr line starting
with `spans.TRACE_MARK` carries the span report as JSON.  The exit code is
the CLI's.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    tracer = spans.install()
    import qlehmer.cli

    origin = Path(qlehmer.cli.__file__).resolve()
    if not origin.is_relative_to(src):
        print(f"qlehmer imported from {origin}, not from {src}", file=sys.stderr)
        return 3
    try:
        code = qlehmer.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    print(spans.TRACE_MARK + json.dumps(tracer.report()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
