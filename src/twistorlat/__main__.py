"""`python -m twistorlat`: the twistorlat command line."""

from .cli import main

if __name__ == "__main__":
    main()
