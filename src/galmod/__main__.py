"""`python -m galmod`: the galmod command, run from a checkout or installed."""
import sys

from .cli import main

sys.exit(main())
