"""`python -m mbf`: the same command line as the `mbf` script."""

import sys

from . import cli

sys.exit(cli.main())
