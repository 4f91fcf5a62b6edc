"""The three workloads, as lists of operations built from a seed.

Seeds only relabel elements and variables and draw sample values, so every
seed asks for the same work.  An operation is a JSON-able dict:

* ``call``: ``"cli"`` (``argv`` for ``cumulants.cli.main``), ``"csp"``
  (``algo`` from ``CSP_ALGORITHMS``) or a package function name, with ``arg``
  the partition text;
* ``oracle``: which check of ``oracles`` its output must pass, with the
  fields that check needs;
* ``known_fault``: present on the operations that fail because of a fault
  the benchmark keeps on purpose.

A round runs the whole list once, in the seeded order given here.
"""

from __future__ import annotations

import random

import samples

WORKLOADS = ("listing", "sweep", "estimate")

#: Block types for ``listing``.  The three of [9] have ``gencum`` times within
#: about 20% of one another, so the latency median (between the 4th and 5th
#: of the 8 operations of a round) falls inside that group, not at a gap.
#: (3,3,2,2) is the heaviest CLI query: about 15 MB of ``gencum`` output.
LISTING_TYPES = ((3, 3, 3), (4, 3, 2), (5, 4), (3, 3, 2, 2))
#: ``sweep``: partitions drawn per block type of [7], each run through all
#: five algorithms, and of [8], each run through ``generalized_cumulant``;
#: ``count_not_complementary`` runs on the first ``SWEEP_COUNTS`` of those,
#: because a 5-block count costs about 0.45 s.  With these numbers the
#: latency median falls where operation costs lie about 2% apart, not at a
#: gap between groups.
SWEEP_PER_TYPE = {7: 2, 8: 4}
SWEEP_COUNTS = 2


def integer_partitions(n: int, largest: int | None = None):
    """Block types of [n], parts decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def relabelled(sizes, rng: random.Random) -> str:
    """A partition of [n] of the given block type, elements shuffled, as text."""
    elements = list(range(1, sum(sizes) + 1))
    rng.shuffle(elements)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sorted(elements[start:start + size]))
        start += size
    blocks.sort()
    return "|".join(",".join(map(str, b)) for b in blocks)


def _listing(rng: random.Random) -> list[dict]:
    ops = []
    for sizes in LISTING_TYPES:
        p = relabelled(sizes, rng)
        for cmd, oracle in (("csp", "listing"), ("gencum", "gencum")):
            ops.append({
                "name": f"{cmd} {sizes}",
                "call": "cli",
                "argv": [cmd, "--partition", p, "--json"],
                "oracle": oracle,
                "p": p,
            })
    return ops


def _sweep(rng: random.Random) -> list[dict]:
    ops = []
    for n, per_type in SWEEP_PER_TYPE.items():
        for sizes in integer_partitions(n):
            for k in range(per_type):
                p = relabelled(sizes, rng)
                if n == 7:
                    for algo in ("twoblock", "graph", "laplacian", "nullspace", "stafford"):
                        ops.append({"name": f"csp_{algo} {sizes}", "call": "csp",
                                    "algo": algo, "arg": p, "oracle": "listing", "p": p})
                    continue
                ops.append({"name": f"generalized_cumulant {sizes}",
                            "call": "generalized_cumulant", "arg": p,
                            "oracle": "gencum", "p": p})
                if k < SWEEP_COUNTS:
                    ops.append({"name": f"count_not_complementary {sizes}",
                                "call": "count_not_complementary", "arg": p,
                                "oracle": "count", "p": p})
    return ops


def _estimate(seed: int, root: str) -> list[dict]:
    seeded_path, seeded_refs, offset_path, offset_refs, perm = samples.prepare(seed, root)
    ops = []
    for path, refs, label in ((seeded_path, seeded_refs, "seeded"),
                              (offset_path, offset_refs, "offset")):
        for lam, ref in refs.items():
            op = {"name": f"estimate {lam} ({label})", "call": "cli",
                  "argv": ["estimate", "--data", path, "--lambda", lam, "--json"],
                  "oracle": "estimate", "ref": str(ref)}
            if label == "offset" and lam in samples.KNOWN_FAULT:
                op["known_fault"] = "float power sums lose the offset column's digits"
            ops.append(op)
    for lam in samples.GMC_LAMBDAS:
        lam = samples.relabel_lambda(lam, perm)
        ops.append({"name": f"gmc {lam}", "call": "cli",
                    "argv": ["gmc", "--lambda", lam, "--json"],
                    "oracle": "gmc", "lambda": lam})
    return ops


def build(workload: str, seed: int, root: str = ".") -> list[dict]:
    """The operations of one round of ``workload`` for ``seed``, in run order."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "listing":
        ops = _listing(rng)
    elif workload == "sweep":
        ops = _sweep(rng)
    elif workload == "estimate":
        ops = _estimate(seed, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
