"""Resource caps: the invariants each protects, and one home for all of them."""

import ast
import re
from pathlib import Path

import commsem
from commsem import errors
from commsem.mumaps import shift_modulus

CAP_NAME = re.compile(r".*_LIMIT|.*_MAX_.*|DEFAULT_SEARCH_BUDGET")
CAPS = {
    "PAIRS_MODULUS_LIMIT",
    "RAW_MODULUS_LIMIT",
    "DEFAULT_PAIRS_VERIFY_LIMIT",
    "ISO_ELEMENT_LIMIT",
    "DEFAULT_SEARCH_BUDGET",
    "FORMULA_MODULUS_LIMIT",
    "DECOMPOSE_MODULUS_LIMIT",
    "BRUTE_FORCE_MAX_M",
    "BRUTE_FORCE_MAX_U",
    "EQUIV_MAX_M",
    "EQUIV_MAX_U",
}


def test_caps_keep_their_invariants():
    pairs, raw = errors.PAIRS_MODULUS_LIMIT, errors.RAW_MODULUS_LIMIT
    # close_pairs' int32 shift products and canonicalized_elements' uint8 sums
    assert pairs * shift_modulus(pairs) <= 2**24
    assert 2 * raw <= 256
    assert errors.ISO_ELEMENT_LIMIT**2 <= 2**24
    # a table row a closure admits has closed-form orders, and a cover its
    # orbit profile
    assert raw <= pairs
    assert errors.DEFAULT_PAIRS_VERIFY_LIMIT <= pairs <= errors.FORMULA_MODULUS_LIMIT
    assert errors.DECOMPOSE_MODULUS_LIMIT <= errors.FORMULA_MODULUS_LIMIT


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_names(element)


def test_every_cap_and_refusal_lives_in_errors():
    homes: dict[str, list[str]] = {}
    refusals = []
    for path in sorted(Path(commsem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in _assigned_names(target):
                    if CAP_NAME.fullmatch(name):
                        homes.setdefault(name, []).append(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceLimitError":
                    refusals.append(f"{path.name}:{node.lineno}")
    assert homes == {name: ["errors.py"] for name in CAPS}
    assert len(refusals) == 1 and refusals[0].startswith("errors.py:"), refusals
