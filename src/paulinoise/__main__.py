"""python -m paulinoise: the paulinoise command line, exit code included."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
