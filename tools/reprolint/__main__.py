"""``python -m tools.reprolint`` entry point."""

import sys

from tools.reprolint.cli import main

sys.exit(main())
