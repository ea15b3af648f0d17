"""Make ``bench`` and the program (``src``) importable when pytest runs
from the repository root: ``pytest bench/tests``."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
