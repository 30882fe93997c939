"""``python -m pointsource <command> ...``: the ``pointsource`` command."""

import sys

from .cli import main

sys.exit(main())
