"""The ordered process map behind the probe grids: same bytes as in-process
fits, errors and the BLAS pin carried across, a dead worker reported as a
package error, a pool broken between maps replaced, and no worker left behind."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conssent
from conssent import cli
from conssent import parallel
from conssent import probes as P
from conssent.errors import DataError, NumericError, WorkerPoolError


def _encodings(n=240, d=12, num_classes=4, seed=0):
    # noisy classes, so the grid cells disagree and the selection matters
    rng = np.random.default_rng(seed)
    y = rng.integers(0, num_classes, size=n)
    x = rng.normal(size=(n, d))
    x[np.arange(n), y] += 0.8
    n_tr, n_va = int(n * 0.7), int(n * 0.15)
    cut = {"train": slice(0, n_tr), "valid": slice(n_tr, n_tr + n_va), "test": slice(n_tr + n_va, n)}
    return P.ProbeEncodings("toy", num_classes, {k: x[s] for k, s in cut.items()},
                            {k: y[s] for k, s in cut.items()})


def _fit_with(monkeypatch, cpus, evaluate):
    """(ProbeResult, every fitted array's bytes) with ``cpus`` usable CPUs."""
    fitted = []

    def recording_map(fn, items):
        out = parallel.ordered_map(fn, items)
        fitted.extend(a.tobytes() for model in out for a in model)
        return out

    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(P, "ordered_map", recording_map)
    return evaluate(), fitted


@pytest.mark.parametrize("classifier", ["logreg", "mlp"])
def test_worker_fits_equal_in_process_fits_byte_for_byte(monkeypatch, classifier):
    enc = _encodings()
    evaluate = {"logreg": lambda: P.eval_logreg(enc),
                "mlp": lambda: P.eval_mlp_probe(enc, P.ProbeConfig(seed=4))}[classifier]
    pooled, pooled_models = _fit_with(monkeypatch, 2, evaluate)
    alone, alone_models = _fit_with(monkeypatch, 1, evaluate)
    assert pooled == alone
    assert len(pooled_models) == len(alone_models) > 0 and pooled_models == alone_models
    assert len({acc for _, acc in alone.table}) > 1  # the cells do differ


def _raise(item):
    cls, message = item
    if cls is not None:
        raise cls(message)
    return message


@pytest.mark.parametrize("cls", [DataError, NumericError])
def test_worker_error_reaches_the_caller_with_its_class_and_message(monkeypatch, cls):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(cls) as caught:
        parallel.ordered_map(_raise, [(None, "ok"), (cls, "cell 1: bad rows")])
    assert type(caught.value) is cls and str(caught.value) == "cell 1: bad rows"


@pytest.mark.parametrize("before", [None, "4"])
def test_workers_run_one_blas_thread_and_the_caller_env_is_kept(monkeypatch, before):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    if before is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", before)
    parallel.shutdown()  # the workers start inside this test
    env = dict(os.environ)
    assert parallel.ordered_map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 3) == ["1"] * 3
    assert len(multiprocessing.active_children()) == 3  # one per item, below the CPU count
    assert dict(os.environ) == env
    parallel.shutdown()


def test_one_usable_cpu_starts_no_process(monkeypatch):
    parallel.shutdown()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert parallel.ordered_map(_raise, [(None, "a"), (None, "b")]) == ["a", "b"]
    P.eval_mlp_probe(_encodings(n=60), P.ProbeConfig())
    assert parallel._pool is None and multiprocessing.active_children() == []


def test_one_cell_runs_in_process(monkeypatch):
    parallel.shutdown()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    P.eval_logreg(_encodings(n=60), l2_grid=(1e-2,))
    assert parallel._pool is None and multiprocessing.active_children() == []


_PROBE_AND_PRINT_WORKERS = """
import multiprocessing
from multiprocessing import resource_tracker
from conssent import parallel, probes
from conssent.corpus import prepare_corpus
from conssent.encoder import init_params
from conssent.toydata import make_toy_corpus

parallel.usable_cpus = lambda: 2  # workers even on a one-CPU host
corpus = make_toy_corpus(200, seed=1)
vocab = prepare_corpus(corpus, valid_fraction=0.2, seed=0, min_freq=1).vocab
tasks = probes.build_probe_tasks(["BigramShift"], corpus, seed=0)
probes.probe_encoder(tasks, init_params(vocab.size, 8, 4, seed=0), vocab, ("logreg",),
                     probes.ProbeConfig())
workers = [p.pid for p in multiprocessing.active_children()]
print(*workers, resource_tracker._resource_tracker._pid)  # the tracker spawning started
"""


def _python(*args, cwd=None):
    """Run this interpreter on ``args`` with the package on its path."""
    src = str(Path(conssent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})


def test_no_worker_outlives_its_process():
    # the pids are read after the child has exited: none may still exist,
    # not even as a zombie left for init to reap
    done = _python("-c", _PROBE_AND_PRINT_WORKERS)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 3
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _kill_on(item):
    if item == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_a_killed_worker_ends_the_map_and_the_next_map_starts_afresh(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(WorkerPoolError, match='if __name__ == "__main__":'):
        parallel.ordered_map(_kill_on, ["a", "kill", "b"])
    assert parallel._pool is None and multiprocessing.active_children() == []
    assert parallel.ordered_map(_kill_on, ["a", "b", "c"]) == ["a", "b", "c"]
    parallel.shutdown()


def test_a_pool_broken_between_maps_is_replaced_before_the_next_map(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    parallel.shutdown()
    assert parallel.ordered_map(_kill_on, ["a", "b"]) == ["a", "b"]
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 60
    while not parallel._pool._broken:  # the flag submit raises on
        assert time.monotonic() < deadline, "the pool never noticed its dead worker"
        time.sleep(0.05)
    assert parallel.ordered_map(_kill_on, ["c", "d"]) == ["c", "d"]
    parallel.shutdown()


_UNGUARDED_PROBE = """
import sys
from conssent import cli, parallel

parallel.usable_cpus = lambda: 2  # workers even on a one-CPU host
sys.exit(cli.main(["probe", "enc.ckpt", "--toy-n", "200", "--probes", "BigramShift",
                   "--probe-classifier", "logreg", "--out", "probed"]))
"""


def test_an_unguarded_probe_script_exits_4_and_names_the_guard(tmp_path):
    # each spawned worker re-runs the script, tries to start a pool of its
    # own and dies in multiprocessing's bootstrap check; the parent must
    # report that once, and no worker's exit may disturb the shared tracker
    assert cli.main(["train", "--task", "R", "--k", "1", "--toy-n", "200", "--hidden-size", "8",
                     "--embed-dim", "8", "--head-dim", "16", "--max-epochs", "1",
                     "--out", str(tmp_path / "enc.ckpt")]) == 0
    (tmp_path / "unguarded.py").write_text(_UNGUARDED_PROBE)
    done = _python("unguarded.py", cwd=tmp_path)
    assert done.returncode == 4, done.stderr
    reports = [line for line in done.stderr.splitlines() if line.startswith("worker error:")]
    assert len(reports) == 1 and 'if __name__ == "__main__":' in reports[0]
    for fault in ("BrokenProcessPool", "_at_exit", "TypeError", "KeyError"):
        assert fault not in done.stderr
    # what tracebacks remain are the workers' own bootstrap errors
    assert done.stderr.count("Traceback") == done.stderr.count("finished its bootstrapping phase") > 0, \
        done.stderr
    assert not list(tmp_path.glob("probed*"))


def test_importing_the_package_or_parallel_loads_no_other_module():
    show = ("import json, sys, {}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'conssent')))")
    for module, loaded in [("conssent", ["conssent"]),
                           ("conssent.parallel", ["conssent", "conssent.parallel"])]:
        done = _python("-c", show.format(module))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == loaded


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes most of a start-up; only a logreg fit needs it
    done = _python("-c", "import sys, conssent.cli; print('scipy.optimize' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
