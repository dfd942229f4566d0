"""``python -m repro`` — the unified pipeline command line.

See ``docs/cli.md`` for subcommands and options, ``docs/artifacts.md``
for artifact schemas.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
