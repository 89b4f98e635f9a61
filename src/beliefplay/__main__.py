"""`python -m beliefplay`: the config-driven command line of `beliefplay.cli`."""

import sys

from .cli import main

sys.exit(main())
