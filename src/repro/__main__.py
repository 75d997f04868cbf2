"""``python -m repro`` — entry point for the experiment CLI."""

import sys

from repro.cli import main

sys.exit(main(sys.argv[1:]))
