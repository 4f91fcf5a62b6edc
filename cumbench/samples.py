"""Samples for the ``estimate`` workload and their cached exact references.

Two CSV samples of ``ROWS`` rows and three columns, values on a 2^-10 grid:

* ``seed-<seed>.csv`` is drawn from the seed and its columns are permuted by a
  seeded relabelling of the variables; the multi-index partitions are
  relabelled the same way, so every seed asks for the same work.
* ``offset.csv`` is fixed (its own constant seed) and has 1e8 added to its
  first column.  Estimates that use that column lose digits to cancellation
  in the float power sums, so they fail the exact check on every seed.

The columns are X1 = G1 + G2, X2 = G2 + G3, X3 = G1 + G2 + G3 + G4 with G_j
independent gamma variables, so the joint cumulants of every order used here
are well away from zero.

The exact references take seconds to compute, so they are cached next to the
samples, keyed by the seed and the SHA-256 of the CSV text.  To rebuild the
samples and references of a seed when they are missing or stale::

    python3 cumbench/samples.py --seed 7
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from fractions import Fraction

import oracles

DATA_DIR = os.path.join("cumbench", "data")
ROWS = 100_000
OFFSET = 1e8
OFFSET_SEED = 1_000_003
#: Bump when the generator or the reference computation changes.
VERSION = 1

#: Estimated on the seeded sample, after relabelling; at most three columns,
#: which is what the closed-form exact reference covers.
SEEDED_LAMBDAS = (
    "1,0,0|0,1,0",
    "1,1,0|0,0,1",
    "0,1,0|0,0,2",
    "1,0,0|0,1,0|0,0,1",
    "2,1,1|1,1,2",
)
#: Also sent to ``gmc``: a minority of the workload's operations.
GMC_LAMBDAS = ("1,1,0|0,0,1", "1,0,0|0,1,0|0,0,1", "2,1,1|1,1,2")
#: Estimated on the offset sample; not relabelled.  The first two use the
#: offset column and are the known fault; the third does not use it.
OFFSET_LAMBDAS = ("1,0,0|1,0,0", "1,0,0|1,0,0|1,0,0", "0,1,0|0,0,1")
KNOWN_FAULT = ("1,0,0|1,0,0", "1,0,0|1,0,0|1,0,0")


def relabelling(seed: int) -> list[int]:
    """Seeded permutation of the three variables: old k goes to perm[k]."""
    perm = [0, 1, 2]
    random.Random(f"vars-{seed}").shuffle(perm)
    return perm


def relabel_lambda(lam: str, perm: list[int]) -> str:
    cols = []
    for col in oracles.parse_lambda(lam):
        new = [0] * len(col)
        for k, e in enumerate(col):
            new[perm[k]] = e
        cols.append(tuple(new))
    cols.sort(reverse=True)
    return "|".join(",".join(map(str, c)) for c in cols)


def _csv_text(rng: random.Random, perm: list[int], offset: float) -> str:
    lines = []
    for _ in range(ROWS):
        g = [rng.gammavariate(2.0, 1.0) for _ in range(4)]
        x = [g[0] + g[1], g[1] + g[2], g[0] + g[1] + g[2] + g[3]]
        x = [round(v * 1024) / 1024 for v in x]
        x[0] += offset
        row = [0.0] * 3
        for k, v in enumerate(x):
            row[perm[k]] = v
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _columns(text: str) -> list[list[float]]:
    rows = [[float(c) for c in line.split(",")] for line in text.splitlines()]
    return [list(col) for col in zip(*rows)]


def _ensure(name: str, make_text, lams: tuple[str, ...], root: str) -> tuple[str, dict]:
    """Path of the CSV and its exact references, rebuilt when missing or stale."""
    data_dir = os.path.join(root, DATA_DIR)
    csv_path = os.path.join(data_dir, name + ".csv")
    ref_path = os.path.join(data_dir, name + ".refs.json")
    rel = os.path.relpath(csv_path, root)
    try:
        with open(ref_path) as fh:
            cached = json.load(fh)
        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except (FileNotFoundError, json.JSONDecodeError):
        cached, digest = {}, None
    refs = cached.get("refs", {})
    if (
        cached.get("version") == VERSION
        and cached.get("csv_sha256") == digest
        and set(refs) == set(lams)
    ):
        return rel, {lam: Fraction(v) for lam, v in refs.items()}
    text = make_text()
    os.makedirs(data_dir, exist_ok=True)
    with open(csv_path, "w") as fh:
        fh.write(text)
    cols = _columns(text)
    refs = {lam: str(oracles.exact_estimate(lam, cols)) for lam in lams}
    digest = hashlib.sha256(text.encode()).hexdigest()
    with open(ref_path, "w") as fh:
        json.dump({"version": VERSION, "csv_sha256": digest, "refs": refs}, fh)
    return rel, {lam: Fraction(v) for lam, v in refs.items()}


def prepare(seed: int, root: str = "."):
    """Both samples with their references, and the seeded relabelling.

    Returns ``(seeded_path, seeded_refs, offset_path, offset_refs, perm)``.
    """
    perm = relabelling(seed)
    lams = tuple(relabel_lambda(lam, perm) for lam in SEEDED_LAMBDAS)
    seeded_path, seeded_refs = _ensure(
        f"seed-{seed}",
        lambda: _csv_text(random.Random(f"sample-{seed}"), perm, 0.0),
        lams, root,
    )
    offset_path, offset_refs = _ensure(
        "offset",
        lambda: _csv_text(random.Random(OFFSET_SEED), [0, 1, 2], OFFSET),
        OFFSET_LAMBDAS, root,
    )
    return seeded_path, seeded_refs, offset_path, offset_refs, perm


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    seeded_path, seeded_refs, offset_path, offset_refs, _ = prepare(args.seed)
    for path, refs in ((seeded_path, seeded_refs), (offset_path, offset_refs)):
        for lam, ref in refs.items():
            print(f"{path}  {lam:22s} {float(ref)!r}")


if __name__ == "__main__":
    main()
