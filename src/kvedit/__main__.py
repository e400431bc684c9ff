"""`python -m kvedit`: the same CLI as the `kvedit` console script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
