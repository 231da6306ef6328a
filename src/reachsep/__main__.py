"""``python -m reachsep``: the same command line as the ``reachsep`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
