"""Run the paper's registered experiments from the command line.

Runs every panel of ``ALL_EXPERIMENTS``, one entry per figure or table
panel; ``--list`` names them.

Run all experiments (at the small simulation scale)::

    python examples/reproduce_paper.py

Run a single experiment, pick a scale or a GPU::

    python examples/reproduce_paper.py --experiment fig14 --scale medium
    python examples/reproduce_paper.py --experiment fig18
    python examples/reproduce_paper.py --list
"""

import argparse
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.gpusim.device import get_device


def _first_line(doc) -> str:
    return (doc or "").strip().splitlines()[0]


def describe(entry) -> str:
    """The entry's module title, then what sets the panel apart: a
    ``partial``'s keywords or a ``run_*`` function's own first line."""
    function = getattr(entry, "func", entry)
    title = _first_line(sys.modules[function.__module__].__doc__)
    if getattr(entry, "keywords", None):
        settings = ", ".join(f"{key}={value!r}" for key, value in entry.keywords.items())
        return f"{title} ({settings})"
    if function.__name__ != "run":
        return f"{title} {_first_line(function.__doc__)}"
    return title


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        action="append",
        help="experiment id (e.g. fig10, table06); may be given multiple times; default: all",
    )
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    parser.add_argument("--device", default="4090", help="GPU preset: 4090, 3090, a6000, 2080ti")
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, entry in ALL_EXPERIMENTS.items():
            print(f"{name:13s} {describe(entry)}")
        return 0

    selected = args.experiment or list(ALL_EXPERIMENTS)
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    device = get_device(args.device)
    for name in selected:
        started = time.perf_counter()
        result = ALL_EXPERIMENTS[name](scale=args.scale, device=device)
        elapsed = time.perf_counter() - started
        print(result.to_text())
        print(f"[{name} regenerated in {elapsed:.1f}s wall clock]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
