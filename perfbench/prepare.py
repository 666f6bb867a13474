"""Write a workload's seeded CSV and the oracle its answers are checked by.

Usage: ``python3 perfbench/prepare.py --workload NAME --seed N --out DIR``

Writes ``DIR/input.csv`` (the only thing the measured runs receive) and
``DIR/oracle.json``:

* ``totals`` -- every non-empty buffer after the stream, computed by the
  policy-independent recurrence ``B[d] += q; B[s] = B[s] - q if B[s] > q
  else 0.0`` over the generated rows, keyed by the CSV's ``str`` vertex ids;
* ``sharded_totals`` (streaming workloads only) -- the buffers of a serial
  ``shards=N, shard_by="hash", policy="noprov"`` run, because hash sharding
  is documented as approximate and its totals differ from the recurrence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def recurrence_totals(interactions) -> Dict[str, float]:
    buffers: Dict[str, float] = {}
    for interaction in interactions:
        source, destination = str(interaction.source), str(interaction.destination)
        quantity = interaction.quantity
        buffers[destination] = buffers.get(destination, 0.0) + quantity
        held = buffers.get(source, 0.0)
        buffers[source] = held - quantity if held > quantity else 0.0
    return {vertex: total for vertex, total in buffers.items() if total != 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    from repro.datasets import load_preset
    from repro.datasets.io import write_interactions_csv
    from repro.runtime import RunConfig, Runner

    network = load_preset(workload.preset, scale=workload.scale, seed=args.seed)
    interactions = network.interactions
    csv_path = args.out / "input.csv"
    rows = write_interactions_csv(interactions, csv_path)
    oracle = {"rows": rows, "totals": recurrence_totals(interactions)}
    del network, interactions
    if workload.streaming_shards:
        serial = Runner(
            RunConfig(
                dataset=str(csv_path),
                policy="noprov",
                shards=workload.streaming_shards,
                shard_by=workload.options["shard_by"],
            )
        ).run()
        oracle["sharded_totals"] = {
            str(vertex): total
            for vertex, total in serial.buffer_totals().items()
            if total != 0.0
        }
    with open(args.out / "oracle.json", "w") as handle:
        json.dump(oracle, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
