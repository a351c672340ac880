"""Allow ``python -m impact_governor`` to behave like the console script."""

import sys

from .node import main

sys.exit(main())
