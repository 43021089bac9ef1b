from __future__ import annotations

import sys

from .check import run_determinism_check

if __name__ == "__main__":
    sys.exit(run_determinism_check())
