"""``python -m splitcut``: the same command line as the ``splitcut`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
