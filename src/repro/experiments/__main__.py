"""Entry point of ``python -m repro.experiments``."""

import sys

from repro.experiments.cli import main

if __name__ == "__main__":
    sys.exit(main())
