import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
SCENARIOS = REPO / "scenarios"
EXTRA = SCENARIOS / "extra"
GOLDEN = TESTS / "golden"
FIXTURES = TESTS / "fixtures"

# make oracle_mip importable from test modules
sys.path.insert(0, str(TESTS))


def scenario(name: str) -> Path:
    p = SCENARIOS / f"{name}.json"
    if not p.exists():
        p = EXTRA / f"{name}.json"
    return p
