"""``python -m evtlab ARGS`` runs the command line as ``evtlab ARGS`` does."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
