"""``python -m hiercorr <command>`` runs the command line of hiercorr.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
