"""``python -m labelmax``: the same command line as the ``labelmax``
script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
