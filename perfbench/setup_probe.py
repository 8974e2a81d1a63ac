"""Everything one bridgebound command pays before its first posterior draw.

    python3 perfbench/setup_probe.py {fit,sweep,verify} CONFIG

Run as a fresh interpreter, so its wall time covers interpreter start, the
import of ``bridgebound.cli`` and the command's pre-draw steps, done through
public functions: config parse, schema inference and CSV load (which
validates the Dataset), sensitivity-setting parse, and ``prepare_benchmark``
for benchmark routes. ``verify`` has no pre-draw work beyond the import.
"""

from __future__ import annotations

import sys

from bridgebound import cli
from bridgebound.calibration import prepare_benchmark
from bridgebound.data import load_dataset

_SCALES = {"benchmark_raw": "raw", "benchmark_rank": "rank"}


def main(command: str, config: str) -> int:
    if command == "verify":
        return 0
    cfg = cli.load_config(config)
    data = load_dataset(cfg["data"], cli.schema_from_config(cfg, cfg["data"]))
    raw = [cfg["setting"]] if command == "fit" else [o["setting"] for o in cfg["overlays"]]
    for setting in map(cli.setting_from_dict, raw):
        if setting.route in _SCALES:
            prepare_benchmark(data, _SCALES[setting.route])
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
