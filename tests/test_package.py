"""Package namespace and the seed-stream contract."""

import ast
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTRUCTORS = {"Philox", "SeedSequence", "default_rng", "RandomState"}
# the deleted seed helpers, integrated-bound chain, forward derivative recursion,
# unused kernel weight, split-kind cell form, kernels module, term row view,
# test-only names, family record, recursive family generator, product cell
# table and zero drift (constant_drift(0.0, d) is the same field), spelled in
# parts so that a grep for them over the repository finds no live use, this
# check included
DELETED = re.compile("derive" + "_seed|keyed" + "_generator|[Cc]orol" + "lary|Time" + "Window"
                     "|Gamma" + "Bound|RHS" + "_KINDS|DEFAULT" + "_C1|log" + "_gamma"
                     "|malliavin" + "_solve|Malliavin" + "Field|hermite" + "_weight"
                     "|locate_cell" + "_split_batch|enumerate" + "_split_family"
                     "|Split" + "IndexFamily|cell_membership" + "_split_batch"
                     r"|\.ker" + r"nels\b|Kernel" + "Cell|log" + "_density|gradient" + "_component"
                     r"|\bdens" + r"ity\(|_as" + "_points|Ibp" + r"Term|\.b" + r"_cells\b"
                     r"|(?<![.\w])val" + r"ues\(|\bCe" + r"ll\(|\.[st]" + r"_max\b|sigma" + r"_of\b"
                     "|all_permutation" + r"_specs|\.inter" + r"val\(|\.expected" + r"_count\b"
                     "|BlockIncreasing" + "Family|_block" + "_partitions|_row" + "_index|_enumerate" + "_cells"
                     "|cell_membership" + "_batch|" + r"\bzero" + r"_drift\b"
                     "|product_identity" + "_check|ProductIdentity" + "Report|_cell" + "_sampler"
                     "|spec" + "_sigma|_sheet_mc" + "_chunk|expected" + "_n_cells")


def test_star_import_binds_no_module():
    namespace = {}
    exec("from sheetsde import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert "expand" in namespace and "__version__" not in namespace


def test_all_is_the_sorted_public_namespace():
    import sheetsde

    assert sheetsde.__all__ == sorted(set(sheetsde.__all__))
    assert all(hasattr(sheetsde, name) for name in sheetsde.__all__)
    # every public name the package binds, submodules aside, and nothing else
    public = sorted(
        name for name, value in vars(sheetsde).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sheetsde.__all__ == public
    assert len(public) == 56


def _constructor_calls(path: Path) -> list[tuple[str, str]]:
    """(file, enclosing function) of every generator-constructor call in path."""
    tree = ast.parse(path.read_text())
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in CONSTRUCTORS:
                    calls.append((str(path.relative_to(ROOT)), function))
            visit(child, function)

    visit(tree, "<module>")
    return calls


def test_stream_is_the_only_generator_constructor():
    # one seed-stream mechanism: any other constructor would bring back
    # streams that are not independent by construction
    files = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("scripts").glob("*.py")])
    calls = [call for path in files for call in _constructor_calls(path)]
    assert set(calls) == {("src/sheetsde/brownian_sheet.py", "stream")}


def test_deleted_names_stay_deleted():
    # neither code nor tests nor the README may bring a deleted name back
    files = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("scripts").glob("*.py"),
                    *ROOT.joinpath("tests").glob("*.py"), ROOT / "README.md"])
    stale = [path.name for path in files if DELETED.search(path.read_text())]
    assert stale == []
