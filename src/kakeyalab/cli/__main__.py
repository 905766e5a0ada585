"""`python -m kakeyalab.cli`: the same entry point as the kakeyalab command."""

import sys

from .main import main

if __name__ == "__main__":
    sys.exit(main())
