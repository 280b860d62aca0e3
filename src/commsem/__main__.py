"""Run the command line as ``python -m commsem``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
