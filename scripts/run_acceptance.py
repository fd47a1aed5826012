#!/usr/bin/env python3
"""Run the acceptance gate and stream one PASS/FAIL line per criterion.

pytest's --durations=0 table follows, with the time of every criterion;
extra arguments are forwarded to pytest after it.
"""
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    target = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"
    sys.exit(pytest.main([str(target), "-v", "-s", "--durations=0", *sys.argv[1:]]))
