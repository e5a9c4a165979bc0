"""`python -m softmaxima`: the CLI; importing this module runs nothing."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
