"""Make the checkout's ``src`` importable for the benchmark's own tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
