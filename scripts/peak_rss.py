"""Run a command, then print the peak resident set size of its processes.

    python scripts/peak_rss.py COMMAND [ARG ...]

The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss``: the largest resident
set of any process the command started and that was waited for, in MB.  The
exit code is the command's.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    code = subprocess.call(argv)
    # Linux reports ru_maxrss in kB.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS: {peak_mb:.1f} MB", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
