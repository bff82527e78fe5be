"""Every name of ``bitension`` that the benchmark under ``perfbench/`` reads
resolves, so a change that removes one fails here and not as a benchmark
run that cannot start."""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"], or None for anything but a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _reads(tree):
    """The reads of one benchmark file, as (what, module, attribute path,
    name to find in ``vars`` of the owner or None): every name a
    ``from bitension... import`` binds, every dotted name read off such a
    name, and every owner and attribute string passed to ``wrap(owner,
    attr, ...)`` or ``tracer.patch(modules, owner, attr, ...)``, which read
    ``vars(owner)[attr]``.  An attribute given as a loop variable takes each
    value of its loop's literal tuple."""
    bound = {}  # name -> (module, attribute path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "bitension"):
            for alias in node.names:
                if node.module == "bitension":
                    bound[alias.asname or alias.name] = (
                        f"bitension.{alias.name}", ())
                else:
                    bound[alias.asname or alias.name] = (node.module,
                                                         (alias.name,))

    def owner(node):
        chain = _chain(node)
        if chain and chain[0] in bound:
            module, path = bound[chain[0]]
            return module, (*path, *chain[1:])
        return None

    reads = [(f"import {n}", *bound[n], None) for n in bound]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and owner(node):
            reads.append((ast.unparse(node), *owner(node), None))

    def visit(node, loops):
        if isinstance(node, ast.For):
            try:
                values = ast.literal_eval(node.iter)
            except ValueError:
                values = None
            if values is not None:
                names = [t.id for t in getattr(node.target, "elts",
                                               [node.target])]
                loops = {**loops, **{
                    name: [v if len(names) == 1 else v[k] for v in values]
                    for k, name in enumerate(names)}}
        if isinstance(node, ast.Call):
            func = _chain(node.func) or []
            at = {"wrap": 0, "patch": 1}.get(func[-1] if func else None)
            if at is not None and len(node.args) > at + 1:
                where, attr = owner(node.args[at]), node.args[at + 1]
                if isinstance(attr, ast.Constant):
                    attrs = [attr.value]
                else:
                    attrs = loops.get(getattr(attr, "id", None), [])
                if where is not None:
                    reads.extend((f"{ast.unparse(node.func)} "
                                  f"{ast.unparse(node.args[at])}.{a}",
                                  *where, a) for a in attrs)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return reads


def _unresolved(module, path, own):
    """Why the read does not resolve, or None when it does."""
    obj = importlib.import_module(module)
    for k, name in enumerate(path):
        if not hasattr(obj, name):
            return f"{module} has no {'.'.join(path[:k + 1])}"
        obj = getattr(obj, name)
    if own is not None and own not in vars(obj):
        return f"{'.'.join((module, *path))} does not define {own}"
    return None


def test_every_name_the_benchmark_reads_resolves():
    reads = [read for path in sorted(PERFBENCH.glob("*.py"))
             for read in _reads(ast.parse(path.read_text()))]
    wrapped = {(module, own) for _, module, path, own in reads
               if own is not None and not path}
    # the reads are found: a wrapped module function and method, and a
    # literal loop of wrapped attributes
    assert ("bitension.surfaces", "surface_data") in wrapped
    assert ("bitension.jets", "exp") in wrapped
    assert any(path == ("MapState",) and own == "directional_covariant"
               for _, _, path, own in reads)
    missing = [f"{what}: {why}" for what, *read in reads
               if (why := _unresolved(*read))]
    assert missing == []


def test_a_removed_name_is_reported():
    tree = ast.parse("from bitension import geometry, jets\n"
                     "geometry.no_such_stage\n"
                     "for fn in ('exp', 'no_such_function'):\n"
                     "    wrap(jets, fn, 'jets.elementary')\n")
    assert [why for _, *read in _reads(tree)
            if (why := _unresolved(*read))] == [
        "bitension.geometry has no no_such_stage",
        "bitension.jets does not define no_such_function"]
