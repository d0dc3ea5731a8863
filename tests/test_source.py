"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polypoisson"


def test_no_bare_assert_in_package_source():
    # invariants must hold under `python -O`, which strips assert statements
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# bench/selftest.py checks `cohomology.verify is poisson.verify` after the tracer
# is removed, so cohomology keeps that import although nothing there calls it
UNUSED_IMPORT_EXCEPTIONS = {"cohomology.verify"}


def _exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_in_package_source_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert [name for name in unused if name not in UNUSED_IMPORT_EXCEPTIONS] == []


def test_every_exported_name_exists():
    # a name deleted from the package must not stay listed in __all__
    import polypoisson

    assert polypoisson.__all__
    missing = [name for name in polypoisson.__all__ if not hasattr(polypoisson, name)]
    assert missing == []


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_slice_cache_is_built_only_by_its_accessor():
    # every cohomology query shares the structure's complex, so a second
    # construction site would bring back a per-call cache
    sites = []
    accessor = None
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "_SliceCache":
                sites.append((path.name, node.lineno))
            if path.name == "cohomology.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "_complex":
                accessor = node
    assert accessor is not None
    assert len(sites) == 1
    name, line = sites[0]
    assert name == "cohomology.py" and accessor.lineno <= line <= accessor.end_lineno


def _enclosing_calls(tree, called):
    """Qualified name of the function or class around each call that ``called`` accepts."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.Call) and called(child):
                found.append(name)
            visit(child, name)

    visit(tree, "")
    return found


def test_slices_are_sized_by_the_complex_alone():
    # the complex counts every slice of a degree in one table, from the
    # monomials it groups and one subset count of its slots; a second call
    # of the subset count would bring back a second way to size a slice
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = _enclosing_calls(tree, lambda call: _called_name(call) == "_weight_counts")
        sites += [(path.name, name) for name in found]
    assert len(sites) == 1
    name, owner = sites[0]
    assert name == "cohomology.py" and owner.startswith("_SliceCache.")


def test_each_coboundary_edge_has_one_assembly_and_one_elimination():
    # the boundary echelon gives both dim B and the outgoing rank one step
    # below, so the complex assembles block matrices in one place, eliminates
    # them in that place alone and never ranks a matrix apart from that
    # echelon; clearing reads the echelon one step below there too
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    assemblies = _enclosing_calls(tree, lambda call: _called_name(call) == "delta_matrix")
    inside = [name for name in assemblies if name.startswith("_SliceCache.")]
    assert inside == ["_SliceCache.boundaries"]
    eliminations = _enclosing_calls(tree, lambda call: _called_name(call) == "SpanTracker")
    assert eliminations == ["_SliceCache.boundaries"]
    ranks = _enclosing_calls(
        tree,
        lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == "rank"
        and isinstance(call.func.value, ast.Name) and call.func.value.id == "linalg",
    )
    assert ranks == []


def test_every_private_function_in_package_source_has_a_caller():
    # a module-level _helper that nothing in the package reads, other than its
    # own body, is dead code
    private = set()
    readers: dict[str, set] = {}  # name -> (module, top-level definition) reading it
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_") \
                    and not top.name.startswith("__"):
                private.add((path.stem, top.name))
            owner = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    assert private
    uncalled = sorted(
        f"{module}.{name}" for module, name in private
        if readers.get(name, set()) <= {(module, name)}
    )
    assert uncalled == []


def test_catalog_builds_entries_from_tables_only():
    # every entry is data decoded in one pass: catalog.py makes polynomials only
    # through the trusted wrap of a finished coefficient dict, and never
    # combines one with an operator or binds it to a name
    tree = ast.parse((SRC / "catalog.py").read_text(encoding="utf-8"))
    called = {_called_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"variable", "constant", "monomial", "phi_inverse",
                         "bivector_from_entries"}
    assert not any(isinstance(node, ast.Pow) for node in ast.walk(tree))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "Polynomial"]
    assert uses
    for use in uses:
        wrap = parents[use]
        assert isinstance(wrap, ast.Attribute) and wrap.attr == "_trusted", use.lineno
        call = parents[wrap]
        assert isinstance(call, ast.Call) and call.func is wrap, use.lineno
        assert not isinstance(
            parents[call], (ast.BinOp, ast.UnaryOp, ast.AugAssign, ast.Assign, ast.NamedExpr)
        ), use.lineno


def test_form_route_triple_loop_reads_tables_only():
    # the form route (integrability_via_forms, whose body is _forms_integrable)
    # keys Omega by omitted pair once per call and then starts from its terms,
    # so a term, a partial or a triple costs lookups: no complement and no form
    # operation runs inside the per-term loop or the per-triple wedge after it
    tree = ast.parse((SRC / "multivector.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_forms_integrable" in {_called_name(node) for node in
                                   ast.walk(functions["integrability_via_forms"])
                                   if isinstance(node, ast.Call)}
    route = functions["_forms_integrable"]

    def loops_over(table, method):
        return [node for node in route.body if isinstance(node, ast.For)
                and isinstance(node.iter, ast.Call) and _called_name(node.iter) == method
                and getattr(node.iter.func.value, "id", None) == table]

    per_term, per_triple = loops_over("omega", "items"), loops_over("dalpha", "values")
    assert len(per_term) == len(per_triple) == 1
    for loop in per_term + per_triple:
        called = {_called_name(node) for stmt in loop.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Call)}
        assert called
        assert not called & {"_complement", "interior_coordinates", "d", "wedge", "_wedge_top"}


def test_integrability_starts_from_the_entries():
    # both routes enumerate only the nonzero products of the bivector's entries;
    # a scan of index triples or pairs would cost n^3 / 6 or n^2 / 2 whatever
    # the bivector holds
    tree = ast.parse((SRC / "multivector.py").read_text(encoding="utf-8"))
    called = {_called_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "_partial" in called
    assert not called & {"_triples_meeting", "combinations"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_triples_meeting" not in defined


def test_form_route_coboundary_pairs_instead_of_wedging():
    # each shuffle puts one pairing of a contraction with phi or P on its second
    # run; a wedge into the top degree would merge every pair of terms to find
    # that one coefficient, and a shuffle sign would only cancel the contraction's
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {_called_name(node) for node in ast.walk(functions["_form_delta_parts"])
              if isinstance(node, ast.Call)}
    assert "_pairing" in called
    assert not called & {"wedge", "_complement"}


def test_partial_derivative_rule_is_defined_once():
    # Polynomial.partial, ExteriorForm.d and both integrability routes lower an
    # exponent through poly._partial; a second copy could drift from it
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [path.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_partial"]
    assert sites == ["poly.py"]


def test_integrability_builds_no_exterior_form():
    # the graded pieces come from the Jacobi obstruction and the form route
    # keys Omega straight off L * P, so neither builds or operates on a form,
    # and the wedge has one implementation
    functions = {}
    for module in ("multivector.py", "poisson.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        functions.update((node.name, node) for node in tree.body
                         if isinstance(node, ast.FunctionDef))
    for name in ("graded_integrability", "_forms_integrable"):
        called = {_called_name(node) for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call)}
        assert called, name
        assert not called & {"phi_map", "wedge", "d", "interior_coordinates"}, name
    tree = ast.parse((SRC / "exterior.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "wedge" in defined
    assert "_wedge_top" not in defined


def test_package_import_loads_no_dataclass_machinery():
    # every CLI call and benchmark pass is a fresh process, so start-up is paid
    # per query: dataclasses (with inspect, dis and ast behind it) took most of it
    code = (
        "import sys; before = set(sys.modules); import polypoisson, polypoisson.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "polypoisson.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


_DICT_WRITERS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}


def _field_writes(tree, fields):
    """(kind, function, line) of each write to an attribute named in ``fields``.

    ``in place`` changes the dict the attribute holds: an item stored or
    deleted, a dict-writing method, ``add_into`` into it or an augmented
    assignment.  ``bind`` stores or deletes the attribute itself.
    """
    def field(node):
        return isinstance(node, ast.Attribute) and node.attr in fields

    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else function
            in_place = (
                isinstance(child, ast.Subscript) and isinstance(child.ctx, (ast.Store, ast.Del))
                and field(child.value)
                or isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in _DICT_WRITERS and field(child.func.value)
                or isinstance(child, ast.Call) and _called_name(child) == "add_into"
                and bool(child.args) and field(child.args[0])
                or isinstance(child, ast.AugAssign) and field(child.target)
            )
            if in_place:
                found.append(("in place", name, child.lineno))
            if field(child) and isinstance(child.ctx, (ast.Store, ast.Del)):
                found.append(("bind", name, child.lineno))
            visit(child, name)

    visit(tree, None)
    return found


def test_values_and_terms_are_written_only_while_made():
    # a bivector keeps its integrability pass (multivector._integrability),
    # which is sound only while a MultiDerivation's values and a Polynomial's
    # or ExteriorForm's terms never change once made: their dicts are filled
    # only in __init__, and the attributes bound only there and in _trusted
    writes = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for kind, function, line in _field_writes(tree, {"values", "terms"}):
            writes.setdefault(kind, []).append((path.name, function, line))
    assert {(name, function) for name, function, _ in writes["in place"]} == {
        ("multivector.py", "__init__"), ("poly.py", "__init__"), ("exterior.py", "__init__")}
    assert {function for _, function, _ in writes["bind"]} == {"__init__", "_trusted"}
