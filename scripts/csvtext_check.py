"""Compare the numpy CSV formatter with CPython's ``'%.17g' %`` on random bit patterns.

    python scripts/csvtext_check.py

Draws 10^7 uniformly random 64-bit patterns from seed 1 (every float64, nan
and ±inf included, about half of them 1e16 or more in magnitude), formats
them a million at a time as CSV rows of two values through this
repository's ``qctl.csvtext``, and compares the bytes with CPython's.
Prints the count checked and the first mismatches, and exits 1 if any value
differs, else 0.  It takes about 30 s.
"""

import sys
from pathlib import Path

import numpy as np

COUNT = 10_000_000
BATCH = 1_000_000
SEED = 1


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from qctl.csvtext import csv_chunks

    rng = np.random.default_rng(SEED)
    checked, wrong = 0, []
    while checked < COUNT:
        x = rng.integers(0, 2**64, BATCH, dtype=np.uint64).view(np.float64).reshape(-1, 2)
        got = b"".join(csv_chunks((), [x])).split(b"\n")
        for row, text in zip(x.tolist(), got):
            expected = ("%.17g,%.17g" % tuple(row)).encode()
            if text != expected:
                wrong.append((row, text, expected))
        checked += x.size
    print(f"{checked} values checked, {len(wrong)} rows differ")
    for row, text, expected in wrong[:10]:
        print(f"  {row!r}: {text!r} != {expected!r}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
