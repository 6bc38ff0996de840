"""``python -m repro`` entry point.

Any library-raised :class:`~repro.errors.ReproError` exits as argparse's
errors do: one ``repro: error: ...`` line on stderr, exit status 2.
Programming errors still print their traceback.
"""

import sys

from repro.cli import main
from repro.errors import ReproError

if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        sys.exit(2)
