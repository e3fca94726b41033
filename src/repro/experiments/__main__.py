"""``python -m repro.experiments [ID ...]``: ``python -m repro experiment``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["experiment", *sys.argv[1:]]))
