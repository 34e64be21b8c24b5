"""Cross-check of the traced layer split against cProfile self time.

Runs one workload untraced under cProfile and sums each function's
self time (``tottime``) by the ``repro/<package>`` its file lives in,
so the ranking can be compared with the traced run's ``<layer>.self_s``.
cProfile charges every Python call, which inflates layers made of many
small calls; compare rankings, not absolute seconds.

    python3 perfbench/cprofile_layers.py --workload write_durable --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def package_of(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        if i + 2 < len(parts):
            return parts[i + 1]
    if "perfbench" in parts:
        return "workloads"
    return "python"  # interpreter builtins and the standard library


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    profiler = cProfile.Profile()
    profiler.enable()
    workloads.run(args.workload, args.seed, args.seconds)
    profiler.disable()
    by_package: dict[str, float] = {}
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        package = package_of(filename)
        by_package[package] = by_package.get(package, 0.0) + row[2]
    total = sum(by_package.values())
    for package, secs in sorted(by_package.items(), key=lambda kv: -kv[1]):
        print(f"{package:12s} {secs:8.3f} s {100 * secs / total:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
