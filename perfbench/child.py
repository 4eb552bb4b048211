"""Run one triminor CLI call in this (fresh) interpreter.

    python child.py [--corpus FILE] [--trace OUT] -- <triminor CLI arguments>

--corpus  graph6 lines that stand in for the shipped corpus, so a corpus
          sweep can run on a fixed slice of it.
--trace   install the layer tracer and write its report to OUT as JSON.

The CLI's stdout and exit status pass through unchanged.  The process must
start with an empty minor-verdict memo, as a user's does; it exits with
status 3 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    opts = dict(zip(own[::2], own[1::2]))
    tracer = None
    if "--trace" in opts:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from triminor import cli, minors, verify

    if "--corpus" in opts:
        lines = Path(opts["--corpus"]).read_text().split()
        verify.load_corpus = lambda: [verify.parse_graph6(s) for s in lines]
    if minors._KR_MEMO:
        print("child: minor-verdict memo is not empty at start", file=sys.stderr)
        return 3
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            Path(opts["--trace"]).write_text(json.dumps(tracer.report()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
