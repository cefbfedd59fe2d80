"""Replay adapter: stands in for a solver under the ``{model}``/``{solution}``
adapter contract.

    python3 perfbench/replay_adapter.py MODEL SOLUTION PREPARED

It checks that the harness wrote a non-empty model file at MODEL, then copies
the prepared solution file PREPARED to SOLUTION.  It exits 2 without writing
anything when the model file is missing or empty.
"""
import os
import shutil
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write("usage: replay_adapter.py MODEL SOLUTION PREPARED\n")
        return 2
    model, solution, prepared = argv
    if not os.path.isfile(model) or os.path.getsize(model) == 0:
        sys.stderr.write(f"replay adapter: no model file at {model}\n")
        return 2
    shutil.copyfile(prepared, solution)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
