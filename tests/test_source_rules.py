"""Source rules the hot paths keep, checked on the parsed modules of `src/`.

On Python 3.11 `enum.EnumType` defines `__getattr__`, so `Lane.LEFT` or
`VehicleClass.CAV` read inside a function costs several times a module
global. Function bodies read the members as the module-level constants of
`jointlane.network` (`LEFT`, `RIGHT`, `CAV`, `HDV`, `BUS`) and the lane tables
`OTHER` and `TAG`. Module-level and class-body uses run once at import and
are allowed, and so are a function's defaults, decorators and annotations.

A vehicle's route changes only in `jointlane.engine`, through `_transfer`
and `assign_route`: the motion step keeps a wait verdict read from the
route of a queue's front, and `assign_route` ends it. No other module stores
to a `.route` or `.route_index` attribute.

Every function and method of `src/` has a caller in `src/`: its name is
loaded somewhere outside its own body, or `jointlane/__init__.py` imports
it. Functions only the tests use belong in the tests.

Every field of `src/` has a reader in `src/`: each annotated name in a class
body (a dataclass or NamedTuple field) and each `self.X` store is loaded as
an attribute somewhere in `src/`, other than as the object of a statement
that only mutates it (`log.append(x)`). A fact is kept where something reads
it, not stored a second time for the tests.

Only `jointlane.metrics` imports `csv`: every report goes through its
`write_csv`, and free text in a rendered log through its `TextCells`, so
CSV quoting has one home.
"""

import ast
from pathlib import Path

import jointlane

SRC = Path(jointlane.__file__).parent
ENUMS = frozenset({"Lane", "VehicleClass"})
ROUTE_FIELDS = frozenset({"route", "route_index"})
# called by the standard library, not by name in `src/`
CALLED_FROM_OUTSIDE = frozenset({"cli.py: _Parser.error"})
# methods that only mutate their object; a statement calling one writes
MUTATORS = frozenset({"append", "extend", "add", "insert", "update", "clear"})


def enum_loads_in_function_bodies(source: str) -> list[tuple[int, str]]:
    """(line, `Enum.name`) of every enum class attribute load that runs
    inside a function or lambda body."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, inside: bool):
        if (
            inside
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ENUMS
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        body: set[int] = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = {id(stmt) for stmt in node.body}
        elif isinstance(node, ast.Lambda):
            body = {id(node.body)}
        for child in ast.iter_child_nodes(node):
            visit(child, inside or id(child) in body)

    visit(ast.parse(source), False)
    return found


def test_the_detector_flags_only_function_bodies():
    source = """
ORDER = (Lane.LEFT, Lane.RIGHT)

class Rule:
    FIRST = VehicleClass.CAV

    def lane(self, lane=Lane.LEFT) -> "Lane":
        return Lane.RIGHT

def outer(vclass: VehicleClass):
    def inner():
        return vclass is VehicleClass.BUS
    pick = lambda l: l is Lane.LEFT
    for lane in Lane:
        pass
    return inner, pick
"""
    assert enum_loads_in_function_bodies(source) == [
        (8, "Lane.RIGHT"), (12, "VehicleClass.BUS"), (13, "Lane.LEFT"),
    ]


def test_no_enum_class_attribute_is_read_in_a_function_body():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in enum_loads_in_function_bodies(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "read the jointlane.network constants instead:\n" + "\n".join(found)


def route_stores(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of every store to a `.route` or `.route_index`
    attribute, augmented assignments included."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr in ROUTE_FIELDS
    )


def test_the_route_detector_flags_only_stores():
    source = """
def apply(veh, assign):
    veh.route = list(assign.route)
    veh.route_index += 1
    n = veh.route_index
    veh.route.append(n)
    veh.offset, veh.route = 0.0, []
"""
    assert route_stores(source) == [(3, "route"), (4, "route_index"), (7, "route")]


def test_routes_change_only_in_the_engine():
    found = [
        f"{path.name}:{line}: .{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "engine.py"
        for line, name in route_stores(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "change a route through engine.assign_route:\n" + "\n".join(found)


def uncalled_functions(sources: dict[str, str], exported: frozenset[str] = frozenset()) -> list[str]:
    """`module: Qualified.name` of every function or method, dunders aside,
    whose name no `ast.Name` or `ast.Attribute` load in `sources` (module
    name to source text) reads outside the function's own body, and that is
    not in `exported`."""
    defs: list[tuple[str, str, ast.AST]] = []
    loads: dict[str, list[int]] = {}  # name -> ids of the nodes that load it

    def visit(module: str, node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    defs.append((module, name, child))
                name += "."
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                loads.setdefault(child.id, []).append(id(child))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                loads.setdefault(child.attr, []).append(id(child))
            visit(module, child, name)

    trees = {module: ast.parse(source) for module, source in sources.items()}
    for module, tree in trees.items():
        visit(module, tree, "")
    found = []
    for module, qualname, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__") or name in exported:
            continue
        inside = {id(n) for n in ast.walk(node)}
        if all(load in inside for load in loads.get(name, ())):
            found.append(f"{module}: {qualname}")
    return found


def test_the_caller_detector_flags_functions_without_a_caller_outside_themselves():
    sources = {
        "a.py": """
def used():
    return helper()

def helper():
    return 1

def recursive(n):
    return recursive(n - 1) if n else 0

def exported():
    pass

class Box:
    def __init__(self):
        self.size = 0

    def grow(self):
        self.size += 1

    def shrink(self):
        self.shrink
""",
        "b.py": """
from a import Box

def run(box: Box):
    box.grow()
""",
    }
    assert uncalled_functions(sources, frozenset({"exported"})) == [
        "a.py: used", "a.py: recursive", "a.py: Box.shrink", "b.py: run",
    ]


def test_every_src_function_has_a_src_caller():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = frozenset(
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = [f for f in uncalled_functions(sources, exported) if f not in CALLED_FROM_OUTSIDE]
    assert found == [], "no caller in src/; move it to the tests or delete it:\n" + "\n".join(
        found
    )


def unread_fields(sources: dict[str, str]) -> list[str]:
    """`module: Class.field` of every annotated name in a class body and every
    attribute a method stores on `self` whose name no `ast.Attribute` load in
    `sources` (module name to source text) reads. An augmented assignment
    stores; a counter that is only ever incremented is not read. Nor is a
    log that is only ever the object of a statement calling one of
    `MUTATORS` (`world.log.append(x)`): such a call writes.

    It matches by name alone, so it cannot see a field whose name a read of
    another object's attribute shares: a `RunResult.horizon` that nothing
    read would pass as long as `ProtectionHorizon.horizon` is read as
    `protection.horizon`.
    """
    fields: dict[str, str] = {}  # "module: Class.field" -> field name
    loads: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        mutated = {
            id(node.value.func.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in MUTATORS
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in mutated
            ):
                loads.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields[f"{module}: {node.name}.{stmt.target.id}"] = stmt.target.id
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                        ):
                            fields[f"{module}: {node.name}.{sub.attr}"] = sub.attr
    return [qualname for qualname, name in fields.items() if name not in loads]


def test_the_field_detector_flags_fields_without_an_attribute_load():
    sources = {
        "a.py": """
@dataclass
class Run:
    seed: int
    audit: dict
    wall: float = 0.0

class Row(NamedTuple):
    key: int
    spare: int

class World:
    LIMIT = 3

    def __init__(self):
        self.t = 0.0
        self.queues: dict = {}
        self.count = 0
        self.ticks = 0

    def tick(self):
        self.count = self.count + 1
        self.ticks += 1
""",
        "b.py": """
def report(run, row, world, spare):
    return world.t + run.wall, run.seed, row.key, getattr(run, "audit"), spare
""",
    }
    assert unread_fields(sources) == [
        "a.py: Run.audit", "a.py: Row.spare", "a.py: World.queues", "a.py: World.ticks",
    ]


def test_the_field_detector_counts_no_mutating_statement_as_a_read():
    sources = {
        "a.py": """
class Log:
    def __init__(self):
        self.rows = []
        self.seen = set()
        self.index = {}
        self.kept = []
        self.peeked = []
        self.returned = []

    def record(self, row):
        self.rows.append(row)
        self.rows.extend([row])
        self.rows.insert(0, row)
        self.seen.add(row)
        self.index.update(row=row)
        self.index.clear()
        self.kept.append(row)
        self.peeked.pop()
        return self.returned.append(row), len(self.kept)
""",
    }
    assert unread_fields(sources) == ["a.py: Log.rows", "a.py: Log.seen", "a.py: Log.index"]


def test_every_src_field_has_a_src_reader():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = unread_fields(sources)
    assert found == [], "no reader in src/; delete the field or read it:\n" + "\n".join(found)


def csv_imports(source: str) -> list[int]:
    """Line of every import of the standard library's `csv` module, or of a
    name from it, nested ones included."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv"
    )


def test_the_csv_detector_flags_every_import_of_the_module():
    source = """
import csv
import json, csv as table
from csv import writer
def render():
    import csv
from .csv import cell
import csvkit
"""
    assert csv_imports(source) == [2, 3, 4, 6]


def test_only_metrics_imports_csv():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "metrics.py"
        for line in csv_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "write reports through jointlane.metrics:\n" + "\n".join(found)
