"""Host speed probe: a fixed kernel whose time tracks how fast the host runs.

    python3 perfbench/calibrate.py

Prints, as a JSON list, the seconds each of REPEATS runs of the kernel
took.  The kernel mixes what a CLI session spends its time on (JSON, small dense
numpy solves, Python loops over lists and dicts) and never imports the
program, so a change to the program leaves it alone.  On a shared host
the time of the same session drifts by a third over minutes; the
benchmark times this kernel between its sessions and rescales the
session times by it (see run.py), which cancels much of that drift.
"""

import json
import time

import numpy as np

REPEATS = 3
RECORDS = 2000  # about 0.1 s a repeat on a 2.1 GHz Xeon


def kernel(n):
    """Parse a JSON list of small matrices, solve at each record, then sort
    and sum: the kinds of work a session does, in its mix of interpreter
    and small-array time.  No large BLAS call: on a 2-core host a threaded
    OpenBLAS solve of even 200 x 200 can take 0.01 s or 0.1 s."""
    rng = np.random.default_rng(1)
    doc = [{"id": f"n{i}", "A": rng.standard_normal((3, 3)).tolist(),
            "b": rng.standard_normal(3).tolist()} for i in range(n)]
    acc = 0.0
    solved = {}
    for rec in json.loads(json.dumps(doc)):
        A, b = np.asarray(rec["A"]), np.asarray(rec["b"])
        M = A @ A.T + np.eye(3)
        x = np.linalg.solve(M, b)
        solved[rec["id"]] = (M, x)
        acc += float(x @ b)
    total = np.zeros((3, 3))
    for key in sorted(solved, key=lambda k: solved[k][1][0])[: n // 2]:
        total = total + solved[key][0]
    return acc + float(total.sum())


def main():
    kernel(200)  # warm numpy's dispatch and the allocator
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel(RECORDS)
        times.append(time.perf_counter() - start)
    print(json.dumps(times))


if __name__ == "__main__":
    main()
