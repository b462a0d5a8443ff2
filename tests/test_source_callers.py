"""Every function, class and method in ``src/lsgg`` has a caller in
``src/lsgg``: code that only tests use belongs in ``tests/``. Every name
a module of the package imports is read in that module, and every field of
a class (annotated in its body, or assigned to ``self`` in its ``__init__``)
is read as an attribute somewhere in the package.

A name counts as referenced when some module of the package reads it as a
name or an attribute. An import alone does not count, so ``__init__``'s
re-exports do not either; its call of ``use_one_blas_thread`` does.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "lsgg")

ALLOWED_WITHOUT_CALLER = {
    # readers of a run's own files (pool.lsgg, checkpoint.lsgg), kept so the
    # files a run writes can be loaded and checked
    "deserialize_pool",
    "load_checkpoint",
    # perfbench/probe.py wraps harness.recall_at_k and harness.mean_recall_at_k
    # by name
    "recall_at_k",
    "mean_recall_at_k",
}

# (class, field) written and never read as an attribute in the package
ALLOWED_UNREAD_FIELDS = {
    # the protocol's held-out split: the split tests check that train, val
    # and test partition each stage, though no run tunes on it
    ("StageDataset", "val"),
}

# (module, name) imported and never read there: harness imports these so that
# perfbench/probe.py can wrap them by name (``# noqa: F401``)
ALLOWED_UNREAD_IMPORTS = {
    ("harness.py", "recall_at_k"),
    ("harness.py", "mean_recall_at_k"),
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read())


def defined_names(tree) -> set:
    """Top-level functions and classes, and the methods of those classes;
    dunder methods, which the language calls, are left out."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out.update(item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not (item.name.startswith("__") and item.name.endswith("__")))
    return out


def referenced_names(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_names(tree) -> set:
    """Names bound by the module's imports, ``__future__`` imports left out."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def class_fields(tree) -> set:
    """(class, field) for each field of the module's classes: the names
    annotated in a class body and the ``self.<name>`` an ``__init__``
    assigns."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                out.add((node.name, item.target.id))
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                out |= {(node.name, t.attr) for t in ast.walk(item)
                        if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return out


def attribute_reads(tree) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def read_names(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_definition_in_src_has_a_caller_in_src():
    defined, referenced = {}, set()
    for name, tree in _modules():
        for d in defined_names(tree):
            defined.setdefault(d, name)
        referenced |= referenced_names(tree)
    uncalled = sorted(f"{module}:{d}" for d, module in defined.items()
                      if d not in referenced and d not in ALLOWED_WITHOUT_CALLER)
    assert uncalled == []


def test_allowed_names_are_still_defined():
    defined = set()
    for _, tree in _modules():
        defined |= defined_names(tree)
    assert ALLOWED_WITHOUT_CALLER <= defined


def test_every_import_in_src_is_read_in_its_module():
    unread, imported = [], set()
    for name, tree in _modules():
        if name == "__init__.py":  # its imports are the package's re-exports
            continue
        names = imported_names(tree)
        imported |= {(name, n) for n in names}
        unread += [f"{name}:{n}" for n in sorted(names - read_names(tree))
                   if (name, n) not in ALLOWED_UNREAD_IMPORTS]
    assert unread == []
    assert ALLOWED_UNREAD_IMPORTS <= imported


def test_every_config_field_is_read_in_src():
    # a config field nothing reads is a setting that changes nothing but the
    # config echo; any other field nothing reads is work no caller uses
    fields, reads = set(), set()
    for _, tree in _modules():
        fields |= class_fields(tree)
        reads |= attribute_reads(tree)
    assert {"ExperimentConfig", "SynthConfig", "TrainConfig"} <= {cls for cls, _ in fields}
    assert ("AdamW", "t") in fields  # an __init__ assignment
    assert sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in reads and (cls, name) not in ALLOWED_UNREAD_FIELDS) == []
    assert ALLOWED_UNREAD_FIELDS <= fields


def format_rule_sites(tree) -> list:
    """(line, what) of each ``repr(...)`` call and ``.startswith("#")`` test:
    how a float is written and what a comment line is."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "repr":
            out.append((node.lineno, "repr("))
        elif (isinstance(node.func, ast.Attribute) and node.func.attr == "startswith"
              and any(isinstance(a, ast.Constant) and a.value == "#" for a in node.args)):
            out.append((node.lineno, '.startswith("#")'))
    return out


def test_format_rules_live_only_in_ioutil():
    # every file writes floats with ioutil.format_float and reads its lines
    # with ioutil.data_lines; a second copy of either rule drifts apart
    sites = {name: format_rule_sites(tree) for name, tree in _modules()}
    assert {what for _, what in sites.pop("ioutil.py")} == {"repr(", '.startswith("#")'}
    assert {name: found for name, found in sites.items() if found} == {}
