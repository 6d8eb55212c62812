"""Run the command line interface as `python -m crisscodec`."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
