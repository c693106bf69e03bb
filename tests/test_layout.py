import ast
from pathlib import Path

import gtap

# Every private name one module of the package imports from another. Each
# entry is a reason in its own right: a new one belongs in the same change
# as the import, and a gone one is taken out here.
PRIVATE_IMPORTS = {
    ("cascades", "disorder", "_band_mask"),
    ("disorder", "tap", "_at_boundary"),
    ("disorder", "tap", "_orig_solution"),
    ("pde", "tap", "_certify"),
    ("pde", "tap", "_minimize"),
}


def test_private_imports_between_modules_are_the_listed_ones():
    found = set()
    for path in Path(gtap.__file__).parent.glob("*.py"):
        # ast.walk reaches the imports nested in functions too
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
