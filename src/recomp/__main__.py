"""`python3 -m recomp`: the command-line front end (`recomp.cli`)."""

from .cli import entry

if __name__ == "__main__":
    entry()
