"""``python -m mixlim``: the same command line as the ``mixlim`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
