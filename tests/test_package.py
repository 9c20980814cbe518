import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import tourney

MODULES = sorted(m.name for m in pkgutil.iter_modules(tourney.__path__))


def test_version():
    assert tourney.__version__ == "0.1.0"


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"tourney.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_traced_names_resolve():
    # bench/tracer.py wraps these by name; a renamed or deleted one breaks
    # the traced benchmark run when the wrappers are installed
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    if not tracer.is_file():
        pytest.skip("no bench/tracer.py")
    names = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "EVALUATIONS")
    }
    assert set(names) == {"SPANS", "EVALUATIONS"}
    wanted = [(module, attr) for module, attr, _ in names["SPANS"]]
    wanted += [("distributions", f"NoiseDistribution.{attr}") for attr in names["EVALUATIONS"]]
    missing = []
    for module, attr in wanted:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(f"tourney.{module}"))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert not missing


# The underscore names each module imports from a sibling module; a new
# private coupling between modules shows up here as a diff.
PRIVATE_IMPORTS = {
    "audit": {"_blocks"},
    "cli": {"_marginal_benefit"},
    "prizes": {"_marginal_benefit", "_mode_values", "_unit"},
    "payschemes": {"_blocks", "_rank", "_rank_count", "_require_draws", "_require_seed", "_substreams"},
}

# The calls that make worker threads, bit generators and substreams, and
# the modules that make them: the block runner, ``montecarlo._blocks``, and
# ``montecarlo._substreams``, which makes every stream of the package.
RUNNER_CALLS = {
    "ThreadPoolExecutor": {"montecarlo"},
    "Generator": {"montecarlo"},
    "PCG64DXSM": {"montecarlo"},
    "jumped": {"montecarlo"},
}

# The scipy submodules each module imports, at module level or inside a
# function; moving an import, or adding one, shows up here as a diff.
SCIPY_IMPORTS = {
    "audit": {"fft"},
    "distributions": {"special"},
    "equilibrium": {"special"},
}


def test_private_imports_between_modules():
    found = {}
    for path in sorted(Path(tourney.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = {alias.name for alias in node.names if alias.name.startswith("_")}
                if private:
                    found.setdefault(path.stem, set()).update(private)
    assert found == PRIVATE_IMPORTS


# The modules whose block work keeps a buffer per worker thread, made by
# ``threading.local()``.
BUFFER_CALLS = {"local": {"audit", "payschemes"}}


def _call_sites(names):
    """The modules of ``tourney`` that call each of ``names``, by name."""
    found = {}
    for path in sorted(Path(tourney.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in names:
                    found.setdefault(name, set()).add(path.stem)
    return found


def test_threads_and_substreams_are_made_in_one_place():
    assert _call_sites(RUNNER_CALLS) == RUNNER_CALLS
    assert _call_sites({"Philox"}) == {}


def test_worker_buffers_are_made_where_blocks_are_worked():
    assert _call_sites(BUFFER_CALLS) == BUFFER_CALLS


def test_scipy_submodules_each_module_imports():
    found = {}
    for path in sorted(Path(tourney.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "scipy":  # a bare ``import scipy`` shows as "scipy"
                    found.setdefault(path.stem, set()).add(name.split(".")[1 if "." in name else 0])
    assert found == SCIPY_IMPORTS


def _environment_reads(tree):
    """Keys of ``os.environ`` and ``os.getenv`` reads; any other use as source."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"from os import {a.name}" for a in node.names if a.name in ("environ", "getenv")]
        if not (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            continue
        use = parents[node]
        if isinstance(use, ast.Attribute) and use.attr == "get":  # os.environ.get(key)
            use = parents[use]
        key = None
        if isinstance(use, ast.Call) and use.args:
            key = use.args[0]
        elif isinstance(use, ast.Subscript):
            key = use.slice
        elif isinstance(use, ast.Compare):
            key = use.left
        reads.append(key.value if isinstance(key, ast.Constant) else ast.unparse(use))
    return reads


def test_environment_reads_only_the_seed():
    # Settings are options of the command line or the config; the seed's
    # fallback is the one value read from the environment
    found = {}
    for path in sorted(Path(tourney.__file__).parent.glob("*.py")):
        reads = _environment_reads(ast.parse(path.read_text()))
        if reads:
            found[path.stem] = set(reads)
    assert found == {"cli": {"TOURNEY_SEED"}}
