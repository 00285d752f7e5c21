"""Run one `seaweed` CLI request with layer tracing, in its own process.

Usage: traced_cli.py OUT_JSON REQUEST_ID CLI_ARG...

Stdout and the exit code are the CLI's own; the tracer's totals, cache
counters and spans are written to OUT_JSON when the request ends.
"""
import json
import sys

import layertrace
from seaweeds import cli


def main() -> int:
    out, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    caches = layertrace.lru_caches()
    tracer = layertrace.Tracer(request)
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    data = tracer.dump()
    data["caches"] = layertrace.cache_counts(caches)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
