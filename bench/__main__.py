"""``python -m bench`` — the benchmark of record (see bench/README.md).

    python -m bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python -m bench compare BASE HEAD
    python -m bench summary DIR [DIR ...]
"""

import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("compare", "summary"):
        from . import compare

        return compare.main(argv)
    from . import run

    return run.main(argv)


if __name__ == "__main__":
    sys.exit(main())
