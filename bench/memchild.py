"""Run one CLI operation in a fresh interpreter and record its peak memory.

    python3 bench/memchild.py RESULT_FILE ARGV...

Writes {"rc": exit code, "kb": peak resident set of this process, in KiB}
to RESULT_FILE: what a user of the command line would see for the call.
``nonhaus`` must be importable.
"""

import json
import resource
import sys


def main() -> None:
    result, argv = sys.argv[1], sys.argv[2:]
    from nonhaus import cli

    rc = cli.main(argv)
    with open(result, "w") as fh:
        json.dump({"rc": rc, "kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)


if __name__ == "__main__":
    main()
