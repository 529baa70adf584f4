"""`python -m circlesys ...` runs the circlesys command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
