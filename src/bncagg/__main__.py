"""``python -m bncagg <command> ...``: the ``bncagg`` command line, uninstalled."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
