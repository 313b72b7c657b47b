"""``python -m slchar``: the ``slchar`` command line."""

import sys

from .cli import main

sys.exit(main())
