"""``python -m chorkit``: the ``chorkit`` command."""

import sys

from .cli import main, pipe_closed

if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:  # a message to a closed standard error
        code = pipe_closed()
    sys.exit(code)
