#!/usr/bin/env python3
"""Write the ingest-real input matrix for one seed.

    python3 benchmark/gen_mtx.py --seed 1 --out DIR

Writes DIR/m.mtx, a real-shaped general Matrix Market matrix, and
DIR/m.json with its non-zero count and SHA-256. The rows have
power-law degrees (Pareto, alpha 1.6, capped at 2000) and banded
locality (90% of entries within +-2000 of the diagonal). Only
random.random() is used, whose stream is stable across Python
versions, so a seed always gives the same bytes.

It runs as its own process so the benchmark's process stays small:
a child's peak-RSS reading can never be lower than its parent's.
"""

import argparse
import hashlib
import json
import random
from pathlib import Path

ROWS = 200_000
AVG_DEGREE = 9
BAND = 2000
MAX_DEGREE = 2000


def generate(seed, rows=ROWS):
    rng = random.Random(seed)
    lines, nnz = [], 0
    scale = AVG_DEGREE * 0.35
    for r in range(rows):
        degree = min(int(scale / (1.0 - rng.random()) ** (1 / 1.6)) + 1,
                     MAX_DEGREE)
        cols = set()
        for _ in range(degree):
            if rng.random() < 0.9:
                c = r + int((rng.random() * 2 - 1) * BAND)
                if c < 0 or c >= rows:
                    c = int(rng.random() * rows)
            else:
                c = int(rng.random() * rows)
            cols.add(c)
        for c in sorted(cols):
            lines.append(f"{r + 1} {c + 1} {rng.random():.4f}\n")
        nnz += len(cols)
    head = ("%%MatrixMarket matrix coordinate real general\n"
            f"% capstan benchmark ingest-real, seed {seed}\n"
            f"{rows} {rows} {nnz}\n")
    return (head + "".join(lines)).encode(), nnz


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, nnz = generate(args.seed)
    (out / "m.mtx.tmp").write_bytes(data)
    (out / "m.mtx.tmp").rename(out / "m.mtx")
    (out / "m.json").write_text(json.dumps(
        {"rows": ROWS, "nnz": nnz,
         "sha256": hashlib.sha256(data).hexdigest()}))


if __name__ == "__main__":
    main()
