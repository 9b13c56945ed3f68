"""``python -m obsforge``: the obs-forge command line."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
