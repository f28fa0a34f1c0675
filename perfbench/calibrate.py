"""A fixed task that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

The benchmark runs this between engage commands, as a fresh child process
like them, to follow the speed of a shared machine, which drifts by a
third over minutes. Like an engage command, the task imports compiled
libraries (numpy, which scipy loads for engage) and then does pure-Python
work: JSON decode and encode, dict building, float arithmetic, sorting.
It imports nothing from engage, so no change to engage can change its
time. It prints a checksum, which must equal ``CHECKSUM``, so that a run
which skipped work cannot pass for a fast machine.
"""

from __future__ import annotations

import hashlib
import json
import random

RECORDS = 8_000
PASSES = 2
CHECKSUM = "7711af69b3aefbdc66e1bd11de15f72c"


def task() -> str:
    import numpy

    rng = random.Random(0)
    lines = [json.dumps({"id": f"v{rng.randrange(RECORDS // 2):06d}", "views": rng.randrange(1, 10**7),
                         "likes": rng.randrange(10**5), "comments": rng.randrange(10**4),
                         "at": f"2014-01-{1 + i % 28:02d}T09:00:00Z"})
             for i in range(RECORDS)]
    digest = hashlib.md5()
    for _ in range(PASSES):
        latest: dict[str, dict] = {}
        for line in lines:
            record = json.loads(line)
            kept = latest.get(record["id"])
            if kept is None or record["at"] >= kept["at"]:
                latest[record["id"]] = record
        rates = sorted((1000 * (r["likes"] + r["comments"]) / r["views"], r["id"]) for r in latest.values())
        mean = sum(rate for rate, _ in rates) / len(rates)
        text = json.dumps([{"id": i, "rate": round(rate, 9)} for rate, i in rates])
        digest.update(f"{text}{mean:.9f}{numpy.median([rate for rate, _ in rates]):.9f}".encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(task())
