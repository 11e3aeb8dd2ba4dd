"""Fingerprint what a behaviour-preserving change must leave unchanged.

    python3 tools/fingerprint.py

Run from a troplift checkout; the program is imported from its `src/` and
the inputs come from its `perfbench/`, which this script only reads.  For
each of perfbench's two seeds and each of its workloads it prints one
sha256 over:

- every response of the workload's own request (`troplift check`, or
  `troplift oracle` on `oracle-xval`);
- on `mixed-small` and `planted-scaling`, every slice `decide` reduces:
  its `pivot_cols`, `head`, `num` and `den`;
- on `oracle-xval`, every circuit's support and vector.

A last line hashes the verdicts and witnesses of the worked instances of
acceptance criterion 4.  Two checkouts that print the same lines answer
every benchmark request alike and reduce every slice to the same N/D.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import troplift.lift as lift  # noqa: E402
import troplift.oracle as oracle  # noqa: E402
from run import DEFAULT_SEED, HELD_OUT_SEED, build_inputs  # noqa: E402
from troplift.lift import Instance, decide  # noqa: E402
from troplift.series import PuiseuxFraction  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _recording(module, name, seen):
    """Make module.name append each result to `seen`; return the original."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, name, wrapper)
    return original


def _slice_text(red):
    return repr((red.pivot_cols, red.head, red.num, red.den))


def _circuits_text(circuits):
    return repr([(sorted(c.support), c.vector) for c in circuits])


def workload_hash(workload, seed):
    digest = hashlib.sha256()
    slices, circuits = [], []
    patched = [(lift, "rref_solve",
                _recording(lift, "rref_solve", slices)),
               (oracle, "minimal_support_vectors",
                _recording(oracle, "minimal_support_vectors", circuits))]
    try:
        for case in build_inputs(workload, seed):
            slices.clear()
            circuits.clear()
            response = workload.request(case)[0]
            digest.update(response.encode())
            for red in slices:
                digest.update(_slice_text(red).encode())
            for found in circuits:
                digest.update(_circuits_text(found).encode())
    finally:
        for module, name, original in patched:
            setattr(module, name, original)
    return digest.hexdigest()


def criterion_4_hash():
    px = PuiseuxFraction.from_terms
    one, zero, t = (PuiseuxFraction.one(), PuiseuxFraction.zero(),
                    PuiseuxFraction.t_power(1))
    w1 = Instance.from_rows([[one, t]], [one])
    w2 = Instance.from_rows([[one, one, one]], [zero])
    w3 = Instance.from_rows([[one, px({-1: 1, 0: 1})]], [one])
    w4 = Instance.from_rows([[one, px({-1: 1, 0: 1}), px({-1: 1})]], [one])
    runs = [(w1, (0, 0)), (w1, (1, 0)), (w1, (3, -1)), (w2, (0, 0, 0)),
            (w3, (0, 0)), (w4, (0, 0, 0))]
    results = []
    for inst, point in runs:
        result = decide(inst, point)
        results.append(result.witness if result.is_member
                       else (result.stage, result.detail))
    return hashlib.sha256(repr(results).encode()).hexdigest()


def main():
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for name, workload in WORKLOADS.items():
            print(seed, name, workload_hash(workload, seed), flush=True)
    print("criterion-4", criterion_4_hash())


if __name__ == "__main__":
    main()
