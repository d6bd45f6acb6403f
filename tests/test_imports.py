"""Imports: start-up cost and dead names.

Importing mdpvol loads no scipy module: scipy is imported only inside the
functions that call it.  Each start-up check runs in a fresh interpreter and
compares module names, not timings.

The dead-name checks read the source with ``ast``: no module imports a name
it never uses, every public name (each name the package exports, and each
module-level function, class and constant of every module) has a consumer
in the package, every public class member (protocol dunders such as
``__iter__`` included) is read as an attribute outside its class's own
constructor, and one whose name an array, dict, list or str has too names
the functions that read it, every defaulted parameter of a module-level
function is passed by some call, and every parameter of every function is
read by its body other than as an argument of a range or non-zero check (a
validator's own parameters aside), each or else has a stated reason to
stay.  No module writes a range check by hand: each goes through
``errors.bound_violation``.  No module imports another module's
leading-underscore name.
"""

import ast
import os
import subprocess
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "mdpvol")

# Public names with no consumer in the package, and why each stays.
UNCONSUMED_PUBLIC = {
    "small_time_rate_1d": "oracle of the two-component minimum in the rate tests",
    "exact_gaussian_call": "exact price the call estimator is tested against",
    "qbar_integrated": "the Qbar constant of integrated functionals, "
                       "kept for the realised-variance family fact",
}

# Public class members that nothing in the package reads as an attribute,
# and why each stays.
_ITEM_1 = "a diagnostic that ROADMAP item 1 surfaces"
UNREAD_MEMBERS = {
    "IntegralResult.error": _ITEM_1,
    "PoissonSolution.centering_residual": _ITEM_1,
    "PoissonSolution.two_sided_gap": _ITEM_1,
    "PoissonSolution.u": "the solution itself, whose centering the tests integrate",
    "AssumptionCheck.detail": "the measured value behind a check, for its reader",
    "TailEstimate.threshold": "the level the estimated probability refers to",
    "CallEstimate.strike_log": "the strike the estimated price refers to",
    "QbarResult.degenerate": "flags a vanishing Qbar, read with qbar_integrated",
}

# Public class members whose name an array, a dict, a list or a str has
# too, so that a read of the name may be the builtin's: the functions, as
# module.function, that read each member.
BUILTIN_NAMED_MEMBERS = {
    "InvariantMeasure.shape": ("reporting.run_invariant",),
    "DiscretePath.values": ("rates._forward_diff", "rates.contract_two_to_one",
                            "acceptance.criterion_06_variational_oracle"),
}
_BUILTIN_NAMES = set().union(*map(dir, (np.ndarray, dict, list, str)))

# Defaulted parameters of module-level functions that no call in the
# package passes, and why each stays.
_ORACLE_START = "an exact oracle starts where its model does; tests pass other starts"
_PRESET_FLAG = "a preset's declared moment flag, set by the library's user"
UNPASSED_DEFAULTS = {
    "main.argv": "the console script passes nothing, so argparse reads sys.argv",
    "exact_gaussian_tail.x0": _ORACLE_START,
    "exact_gaussian_call.x0": _ORACLE_START,
    "make_power_family.moment_flag": _PRESET_FLAG,
}

# Parameters of functions (nested ones included) that their body never
# reads, and why each stays.
UNREAD_PARAMETERS = {
    "make_constant_sigma.fused.y": "the kernel interface passes the factor, "
                                   "and sigma is constant",
}

_REPORT = """
import sys
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _scipy_modules_after(code: str) -> str:
    result = _run("-c", code + _REPORT)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_import_mdpvol_loads_no_scipy():
    assert _scipy_modules_after("import mdpvol") == "[]"


def test_import_cli_loads_no_scipy():
    assert _scipy_modules_after("import mdpvol.cli") == "[]"


def test_smalltime_tail_estimate_loads_no_scipy():
    code = (
        "import mdpvol\n"
        "model = mdpvol.make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.1)\n"
        "config = mdpvol.SimConfig(n_paths=1000, n_steps=10, t_end=0.01, seed=1)\n"
        "mdpvol.estimate_smalltime_tail(model, 0.01, 0.2, 0.25, config)\n")
    assert _scipy_modules_after(code) == "[]"


def test_speed_measure_and_its_poisson_solve_load_no_scipy():
    code = (
        "import mdpvol\n"
        "measure = mdpvol.speed_measure(2, 0.1, 0.5, 0.75)\n"
        "mdpvol.integrate(measure, lambda y: y)\n"
        "mdpvol.solve_poisson_cev(lambda y: y, measure)\n")
    assert _scipy_modules_after(code) == "[]"


def test_python_dash_m_runs_the_cli(tmp_path):
    result = _run("-m", "mdpvol", "rate", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "rate.csv").exists()


def _modules() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read(), filename=name)
    return trees


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; ``__future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(node: ast.AST) -> set[str]:
    """Names read under ``node``, bare or as an attribute (``asy.quote_catalog``)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


# the hand-written range and non-zero checks that errors.bound_violation and
# errors.nonzero_violation replaced
_HAND_CHECKS = ("_require(", "must be positive, got", "must lie in", 'must be non-zero")')


def test_every_range_check_goes_through_bound_violation():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                found += [f"{name}:{number} {line.strip()}"
                          for number, line in enumerate(handle, start=1)
                          if any(check in line for check in _HAND_CHECKS)]
    assert found == []


def test_no_module_imports_a_private_name():
    # a name another module needs is that module's public interface
    private = [f"{module}:{node.lineno} {alias.name}"
               for module, tree in _modules().items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "mdpvol")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_imports_an_unused_name():
    unused = [f"{module}:{line} {name}"
              for module, tree in _modules().items() if module != "__init__.py"
              for name, line in _imported(tree).items()
              if name not in _referenced(tree)]
    assert unused == []


def _defined(statement: ast.stmt) -> set[str]:
    """Names a module-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {target.id for target in statement.targets if isinstance(target, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def test_every_public_name_has_a_consumer_or_a_reason():
    trees = _modules()
    public = set(_imported(trees.pop("__init__.py")))
    public |= {name for tree in trees.values() for statement in tree.body
               for name in _defined(statement) if not name.startswith("_")}
    consumed = set()
    for tree in trees.values():
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            # a definition that reads its own name (a recursive call, an
            # assignment target) is not a consumer
            consumed |= _referenced(statement) - _defined(statement)
    unconsumed = {name for name in public if name not in consumed}
    assert sorted(unconsumed - set(UNCONSUMED_PUBLIC)) == []
    # an entry whose name gained a consumer or left the package is stale
    assert sorted(set(UNCONSUMED_PUBLIC) - unconsumed) == []


def _members(cls: ast.ClassDef) -> set[str]:
    """Public fields, methods and properties declared in a class body, and its
    protocol dunders (``__iter__``, ``__len__``, ...) other than the constructor's.

    ``ast`` cannot see ``for x in obj`` or ``len(obj)`` as a read, so a
    dunder counts as read only where it is named explicitly.
    """
    names = {node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    names |= {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    return {name for name in names if not name.startswith("_")
            or (name.startswith("__") and name.endswith("__")
                and name not in ("__init__", "__post_init__"))}


def _constructor_self_reads(cls: ast.ClassDef) -> set[int]:
    """Ids of the ``self.<name>`` reads in a class's own ``__init__``/``__post_init__``.

    A class that validates its own field has not found a reader for it.
    """
    return {id(node) for method in cls.body
            if isinstance(method, ast.FunctionDef)
            and method.name in ("__init__", "__post_init__") and method.args.args
            for node in ast.walk(method)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == method.args.args[0].arg}


def test_every_class_member_is_read_or_has_a_reason():
    trees = _modules()
    classes = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    own = set().union(*map(_constructor_self_reads, classes.values()))
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in own}
    unread = set()
    for cls in classes.values():
        # an override is read wherever its base class's member is
        inherited = set().union(*(_members(classes[base.id]) for base in cls.bases
                                  if isinstance(base, ast.Name) and base.id in classes))
        unread |= {f"{cls.name}.{name}" for name in _members(cls) - read - inherited}
    assert sorted(unread - set(UNREAD_MEMBERS)) == []
    # an entry whose member gained a reader or left the package is stale
    assert sorted(set(UNREAD_MEMBERS) - unread) == []


def test_every_member_with_a_builtin_name_names_its_readers():
    # matching reads by name cannot tell shape of a measure from shape of an
    # array, so each such member names the functions that read it
    trees = _modules()
    shared = {f"{node.name}.{name}" for tree in trees.values() for node in tree.body
              if isinstance(node, ast.ClassDef)
              for name in _members(node) if name in _BUILTIN_NAMES}
    assert sorted(shared - set(BUILTIN_NAMED_MEMBERS)) == []
    # an entry whose member left the package or lost its builtin name is stale
    assert sorted(set(BUILTIN_NAMED_MEMBERS) - shared) == []
    functions = {f"{module[:-3]}.{name}": function for module, tree in trees.items()
                 for name, function in _functions(tree)}
    stale = [f"{member} {reader}" for member, readers in BUILTIN_NAMED_MEMBERS.items()
             for reader in readers
             if reader not in functions or member.split(".")[1] not in {
                 node.attr for node in ast.walk(functions[reader])
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}]
    # a named reader that left the package or no longer reads the name is stale
    assert stale == []


def test_every_default_is_passed_or_has_a_reason():
    trees = _modules()
    params = {}  # function name -> (positional parameters, defaulted parameters)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                params[node.name] = (positional, defaulted)
    passed = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee not in params:
                continue
            positional, defaulted = params[callee]
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                passed |= {f"{callee}.{name}" for name in defaulted}
            passed |= {f"{callee}.{name}" for name in positional[:len(call.args)]}
            passed |= {f"{callee}.{k.arg}" for k in call.keywords}
    unpassed = {f"{function}.{name}" for function, (_, defaulted) in params.items()
                for name in defaulted} - passed
    assert sorted(unpassed - set(UNPASSED_DEFAULTS)) == []
    # an entry whose parameter gained a caller or left the package is stale
    assert sorted(set(UNPASSED_DEFAULTS) - unpassed) == []


def _functions(node: ast.AST, prefix: str = ""):
    """Each function under ``node`` with its dotted name (``make_heston.fused``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


# the range and non-zero checks, and the validators whose job is to call them
_CHECKS = ("bound_violation", "nonzero_violation")
_VALIDATORS = ("rates._check_small_time",)


def _checked_names(function: ast.AST) -> set[int]:
    """Ids of the names a function passes as a positional argument to a check."""
    return {id(arg) for node in ast.walk(function) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in _CHECKS
            for arg in node.args if isinstance(arg, ast.Name)}


def test_every_parameter_is_read_or_has_a_reason():
    unread = set()
    for module, tree in _modules().items():
        for name, function in _functions(tree):
            args = function.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            # a parameter only range-checked is not used, but in a validator
            validator = (f"{module[:-3]}.{name}" in _VALIDATORS
                         or (module == "errors.py" and name.endswith("_violation")))
            checked = set() if validator else _checked_names(function)
            read = {node.id for statement in function.body for node in ast.walk(statement)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and id(node) not in checked}
            unread |= {f"{name}.{param}" for param in params
                       if param not in read and param not in ("self", "cls")
                       and not param.startswith("_")}
    assert sorted(unread - set(UNREAD_PARAMETERS)) == []
    # an entry whose parameter gained a reader or left the package is stale
    assert sorted(set(UNREAD_PARAMETERS) - unread) == []
