"""``python -m saddle_escape``: the ``saddle-escape`` command line."""
from .harness_cli import main

if __name__ == "__main__":
    raise SystemExit(main())
