"""The benchmark's and the scripts' view of the package: every
``conssent`` name that ``perfbench/*.py`` or ``scripts/*.py`` imports or
reads must exist, every call they make through one must bind to that
name's signature, and every attribute the benchmark reads off a settings
object named ``config`` must exist on one.

Tier-1 does not run the benchmark, and the benchmark's files change only
with the benchmark itself, so a rename or a dropped parameter in the
package would otherwise break it silently. Of the scripts, tier-1 runs the
walkthrough, ``end_to_end.py --fast``, in a fresh process; that covers
training with validation, ``probe_encoder`` and ``head_probs`` end to end.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conssent.probes import ProbeConfig
from conssent.train import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH, SCRIPTS = ROOT / "perfbench", ROOT / "scripts"


def _uses(tree: ast.Module) -> tuple[set, list]:
    """(module, name) pairs the file reads from conssent, and
    (module, name, call node) for each call it makes through one."""
    modules = {}  # local name -> the conssent module it is bound to
    imported = {}  # local name -> (module, name) imported from a conssent module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "conssent")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "conssent":
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                if node.module == "conssent" and importlib.util.find_spec(sub) is not None:
                    modules[a.asname or a.name] = sub
                else:
                    imported[a.asname or a.name] = (node.module, a.name)

    def target(expr):
        if isinstance(expr, ast.Name):
            return imported.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id in modules:
            return modules[expr.value.id], expr.attr
        return None

    names, calls = set(imported.values()), []
    for node in ast.walk(tree):
        if target(node) is not None:
            names.add(target(node))
        if isinstance(node, ast.Call) and target(node.func) is not None:
            calls.append((*target(node.func), node))
    return names, calls


def _read(directory: Path) -> tuple[set, list, set]:
    """What ``_uses`` finds in each ``*.py`` file of ``directory``, the calls
    tagged with their file, plus every attribute read off a ``config``."""
    names, calls, config_attrs = set(), [], set()
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        file_names, file_calls = _uses(tree)
        names |= file_names
        calls += [(path.name, *call) for call in file_calls]
        config_attrs |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name) and node.value.id == "config"}
    return names, calls, config_attrs


def _missing(names) -> list:
    return [f"{m}.{n}" for m, n in sorted(names) if not hasattr(importlib.import_module(m), n)]


def _unbound(calls) -> list:
    """Each call that does not bind to its target's signature."""
    failures = []
    for where, module, name, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue  # argument counts unknown until run time
        obj = getattr(importlib.import_module(module), name, None)
        if obj is None or isinstance(obj, type) and issubclass(obj, BaseException):
            continue  # a missing name fails on its own; exceptions take any arguments
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            failures.append(f"{where}:{call.lineno} {module}.{name}: {exc}")
    return failures


NAMES, CALLS, CONFIG_ATTRS = _read(PERFBENCH)
SCRIPT_NAMES, SCRIPT_CALLS, _ = _read(SCRIPTS)


def test_benchmark_reads_the_package():
    assert len(NAMES) >= 2 and CALLS, "perfbench/*.py no longer parses as expected"


@pytest.mark.parametrize("module,name", sorted(NAMES), ids=[f"{m}.{n}" for m, n in sorted(NAMES)])
def test_every_benchmark_name_resolves(module, name):
    assert not _missing([(module, name)]), f"{module}.{name} is gone"


def test_every_benchmark_call_binds():
    failures = _unbound(CALLS)
    assert not failures, failures


@pytest.mark.parametrize("module,name", sorted(SCRIPT_NAMES),
                         ids=[f"{m}.{n}" for m, n in sorted(SCRIPT_NAMES)])
def test_every_script_name_resolves(module, name):
    assert not _missing([(module, name)]), f"{module}.{name} is gone"


def test_every_script_call_binds():
    assert len(SCRIPT_NAMES) >= 5 and SCRIPT_CALLS, "scripts/*.py no longer parse as expected"
    failures = _unbound(SCRIPT_CALLS)
    assert not failures, failures


def test_the_check_catches_a_deleted_name_and_a_call_that_no_longer_binds():
    names, calls = _uses(ast.parse("from conssent import ensemble as ens\n"
                                   "ens.ensemble_predict([], ())\n"
                                   "ens.ensemble_accuracy([], ())\n"))
    assert _missing(names) == ["conssent.ensemble.ensemble_predict"]
    assert [f.split(": ")[0] for f in _unbound([("s.py", *c) for c in calls])] == [
        "s.py:3 conssent.ensemble.ensemble_accuracy"]


def test_every_config_attribute_exists():
    # constants such as TrainConfig.clip_norm count: they must stay attributes
    assert len(CONFIG_ATTRS) >= 10, "perfbench/*.py no longer parses as expected"
    settings = (TrainConfig(task="R", k=1), ProbeConfig())
    missing = sorted(a for a in CONFIG_ATTRS if not any(hasattr(s, a) for s in settings))
    assert not missing, missing


def test_the_walkthrough_runs_and_prints_its_report():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(SCRIPTS / "end_to_end.py"), "--fast"],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    assert re.search(r"^BigramShift  trained P\(2\): \d\.\d{3}   untrained: \d\.\d{3}", done.stdout, re.M)
    assert re.search(r"^R\(1\) members: (\d\.\d{3} ){3}  ensemble: \d\.\d{3}$", done.stdout, re.M)
