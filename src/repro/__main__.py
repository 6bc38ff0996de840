"""``python -m repro`` entry point.

A :class:`~repro.errors.ConfigurationError` exits as argparse's errors
do: one ``repro: error: ...`` line on stderr, exit status 2.
"""

import sys

from repro.cli import main
from repro.errors import ConfigurationError

if __name__ == "__main__":
    try:
        sys.exit(main())
    except ConfigurationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        sys.exit(2)
