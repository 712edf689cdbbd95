"""``python -m opasim``: the same command-line tool as ``opasim``."""

from .cli import main

if __name__ == "__main__":
    main()
