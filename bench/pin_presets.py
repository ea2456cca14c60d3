"""Pin the reference tables of the ``presets`` workload.

Runs every figure preset through the public path and stores the parsed
CSV columns and values in ``reference/presets.npz``.  The committed file
was produced at the seed commit of the benchmark; rerun this only to
re-pin deliberately, never to make a failing check pass.

    PYTHONPATH=src python3 bench/pin_presets.py
"""
import numpy as np

from twoatom.config import parse_config
from twoatom.runner import run_scenario

from checks import REFERENCE, parse_csv
from workloads import PRESETS


def main() -> None:
    arrays = {}
    for fig in PRESETS:
        table = run_scenario(parse_config(f"scenario = figure\nfigure = {fig}\n"))
        columns, data = parse_csv(table.to_csv())
        arrays[fig] = data
        arrays[fig + ".columns"] = np.array(columns)
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **arrays)


if __name__ == "__main__":
    main()
