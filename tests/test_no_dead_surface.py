"""No caller, no code: every public name in ``src/repro`` has a reader.

Each module-level public function or class must be named (whole word)
by some file outside ``tests/``: another module of ``src/``, an
example, a benchmark or the CI workflow.  In its own module only code
outside its definition counts (a result class its function builds, a
helper a sibling calls), never its docstrings or ``__all__``; a package
``__init__`` counts only outside its imports and ``__all__``, so a
re-export alone is no caller.  A name only tests reach is a capability
no caller uses: delete it, or give it a caller.  The allow-list holds
the exceptions, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

ALLOWED = {
    # The paper's closed-form index maps (Algorithms 1-3): the scan walks
    # λ with the generic order-r decoder, and these stay as the paper's
    # formulas, pinned by tests and named by DESIGN §5's ablation.
    "triangular_size": "Algorithm 1's grid size, the paper's closed form",
    "linear_from_pair": "Algorithm 1's inverse map, the paper's closed form",
    "pair_from_linear": "Algorithm 1's closed-form pair decode",
    "pair_from_linear_array": "Algorithm 1's vectorized pair decode",
    "tetrahedral_size": "Algorithm 2's grid size, the paper's closed form",
    "linear_from_triple": "Algorithm 2's inverse map, the paper's closed form",
    "triple_from_linear": "Algorithm 2's closed-form triple decode",
    "cumulative_triangular": "Algorithm 3's level-offset table for pairs",
    "cumulative_tetrahedral": "Algorithm 3's level-offset table for triples",
    # The reader of what `save_result` (the CLI's --output) writes.
    "load_result": "reads back the result files save_result writes",
    # Oracles the test suite checks the program against.
    "score_combos_reference": "one-shot scoring oracle of the native scan",
    "validate_prometheus": "strict checker of the /metrics exposition format",
}


def _module_names(path: Path) -> "tuple[list[str], set]":
    """The module's public top-level functions and classes, and the
    names its code uses outside their own definitions."""
    tree = ast.parse(path.read_text())
    public = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    used = {
        node.id
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id != getattr(top, "name", None)
    }
    return public, used


def _init_words(path: Path) -> str:
    """The text of an ``__init__`` minus its imports and ``__all__``."""
    tree = ast.parse(path.read_text())
    lines = path.read_text().splitlines()
    drop: set = set()
    for node in tree.body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        )
        if reexport:
            drop.update(range(node.lineno - 1, node.end_lineno))
    return "\n".join(line for i, line in enumerate(lines) if i not in drop)


def _corpus() -> "dict[Path, set]":
    files = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "examples").rglob("*.py")),
        *sorted((ROOT / "benchmarks").rglob("*.py")),
        ROOT / ".github" / "workflows" / "ci.yml",
    ]
    return {
        path: set(
            re.findall(
                r"\w+",
                _init_words(path) if path.name == "__init__.py" else path.read_text(),
            )
        )
        for path in files
        if path.exists()
    }


def unreached_names() -> "list[str]":
    """``module:name`` for every public name no file outside tests names."""
    corpus = _corpus()
    missing = []
    for module in sorted(SRC.rglob("*.py")):
        public, own = _module_names(module)
        for name in public:
            if name in ALLOWED or name in own:
                continue
            if not any(
                name in words for path, words in corpus.items() if path != module
            ):
                missing.append(f"{module.relative_to(ROOT / 'src')}:{name}")
    return missing


def test_every_public_name_has_a_caller_outside_tests():
    assert unreached_names() == []


def test_allow_list_entries_are_still_needed():
    """An allowed name that gained a caller, or no longer exists, leaves
    the list."""
    defined = {
        name for module in SRC.rglob("*.py") for name in _module_names(module)[0]
    }
    assert set(ALLOWED) <= defined
    saved = dict(ALLOWED)
    ALLOWED.clear()
    try:
        unreached = {entry.split(":")[1] for entry in unreached_names()}
    finally:
        ALLOWED.update(saved)
    assert unreached == set(saved)
