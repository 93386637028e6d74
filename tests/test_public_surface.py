"""Public surface: every module-level public function or class of the package
has a caller outside the unit tests, or a stated reason to exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "quintlab").glob("*.py"))

# names kept although only unit tests call them, each for one reason
ALLOWED = {
    "pointwise_product": "the oracle of multilinear_ratio",
    "all_signed_expansions": "the enumerator of the object-path oracle of min_unclogged",
    "estimate_schedule": "a statement of the paper",
    "bernstein_ratio": "a statement of the paper",
    "dump_field": "the writer of the documented dump format that initial.kind: file reads",
    "load_state": "the reader of the documented state-dump format",
}


def _referenced_names(path: Path) -> set[str]:
    """Names and attributes used in a file; a top-level definition's own name
    does not count inside its own body."""
    refs = set()
    for node in ast.parse(path.read_text()).body:
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.discard(node.name)
        refs |= used
    return refs


def test_public_names_have_callers_outside_unit_tests():
    public = {
        node.name
        for path in SRC
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    # the package itself, the scripts, the benchmark and the acceptance criteria
    callers = SRC + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    refs = set().union(*map(_referenced_names, callers))
    docs = "\n".join(p.read_text() for p in [ROOT / "README.md", *ROOT.glob("configs/*.json")])
    unused = {name for name in public - refs if not re.search(rf"\b{name}\b", docs)}
    assert unused == set(ALLOWED)
