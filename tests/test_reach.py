"""Every function under src/hgdiff is reached by a run, or says why it stays.

The runs call `cli.main` in this process at toy size: every subcommand, the
link and node tasks, synthetic and file data, the step-T autoencoder, a
walk of 0 and of 3 steps, a data error, a divergence, and the generator on
two workers. A profiler records each function they call, on every thread.
A function that no run calls is dead code unless `UNREACHED` names it, or
its module, with the reason it stays.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np

import hgdiff
from hgdiff import cli, hetgraph

PACKAGE = Path(hgdiff.__file__).resolve().parent

UNREACHED = {
    "certify": "certify: `python -m hgdiff.certify` and acceptance c3 run it",
    "numerics.grad_check": "certify: the gradient check certify runs",
    "encoder.propagate_relation": "acceptance-pinned: c6 calls it",
    "diffusion.DiffusionSchedule.alpha_bar_at": "acceptance-pinned: c2 calls it",
    "diffusion.DiffusionSchedule.beta_at": "acceptance-pinned: c2 calls it",
    "diffusion.DiffusionSchedule.alpha_at": "acceptance-pinned: c2 calls it",
    "diffusion.DiffusionSchedule._check_t": "acceptance-pinned: the accessors' check",
    "numerics.CsrMatrix.transpose": "perfbench-pinned: perfbench/tracing.py wraps it",
    "hetgraph.HeteroGraph.edge_count": "perfbench-pinned: its edge counter calls it, and c9",
    "numerics.CsrMatrix.to_dense": "test oracle: the dense form the tests compare with",
}


def defined_functions():
    """`module.qualname` of every def under src/hgdiff, keyed by (file name,
    first line) as its code object is: a decorated def starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path.name, first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def called_functions(run):
    """(file name, first line) of every function under src/hgdiff that
    `run()` calls, on its own thread or on threads it starts."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    before = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    return {(os.path.basename(code.co_filename), code.co_firstlineno) for code in codes
            if Path(code.co_filename).resolve().parent == PACKAGE}


MODEL = ("--epochs", "2", "--seed", "5", "--k", "5", "--dim", "4", "--layers", "2",
         "--steps", "4")
TOY = ("--synth-users", "30", "--synth-items", "20", "--synth-aux", "2",
       "--synth-density", "0.15", *MODEL)


def runs(tmp_path, cpus, monkeypatch):
    """Each run's argv and the exit code it must give."""
    data, model = tmp_path / "data", tmp_path / "model.npz"
    bad_edges = tmp_path / "bad_edges.txt"
    bad_edges.write_text("0 0 interact\n0 x interact\n")
    files = ("--edge-file", str(data / "edges.txt"), "--schema-file", str(data / "schema.txt"))
    yield ["synth", "--users", "60", "--items", "20", "--aux", "1", "--density", "0.2",
           "--seed", "3", "--out-dir", str(data)], 0
    yield ["train", *TOY, "--per-row-t", "--eval-every", "1", "--infer-steps", "3",
           "--noise-scale", "1e-3", "--save", str(model), "--export",
           str(tmp_path / "aux1.txt"), "--table", "relation:aux1",
           "--report", str(tmp_path / "train.json")], 0
    yield ["eval", "--model", str(model), "--report", str(tmp_path / "eval.json")], 0
    yield ["export", "--model", str(model), "--out", str(tmp_path / "fused.txt")], 0
    yield ["train", *MODEL, *files, "--label-file", str(data / "labels.txt"),
           "--task", "node", "--variant", "DAE", "--infer-steps", "0"], 0
    yield ["ablate", *TOY, "--epochs", "1", "--report", str(tmp_path / "ablate.json")], 0
    yield ["noise-exp", *TOY, "--epochs", "1", "--ratios", "0,0.5",
           "--report", str(tmp_path / "noise.json")], 0
    yield ["train", *MODEL, "--edge-file", str(bad_edges), "--schema-file",
           str(data / "schema.txt")], 2
    yield ["train", *TOY, "--synth-users", "40", "--lr", "1e300"], 3
    # the generator's row blocks on two workers
    monkeypatch.setattr(hetgraph, "_SYNTH_BLOCK_ELEMENTS", 4 * 40)
    cpus(2)
    yield ["synth", "--users", "90", "--items", "40", "--seed", "7",
           "--out-dir", str(tmp_path / "threaded")], 0


def test_every_function_is_reached_or_allowed(tmp_path, cpus, monkeypatch, capsys):
    codes = []

    def run_all():
        with np.errstate(all="ignore"):
            for argv, expected in runs(tmp_path, cpus, monkeypatch):
                codes.append((argv[0], cli.main(argv), expected))

    # a memoized function runs only on its first call in the process
    for name, module in list(sys.modules.items()):
        if name.startswith("hgdiff."):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    called = called_functions(run_all)
    err = capsys.readouterr().err
    assert [(cmd, code) for cmd, code, _ in codes] == [(cmd, exp) for cmd, _, exp in codes], err
    not_called = sorted(name for key, name in defined_functions().items() if key not in called)
    covers = lambda key, name: name == key or name.startswith(key + ".")
    unlisted = [name for name in not_called if not any(covers(key, name) for key in UNREACHED)]
    assert unlisted == [], "functions that no run reaches and no allowlist entry names"
    stale = [key for key in UNREACHED if not any(covers(key, name) for name in not_called)]
    assert stale == [], "allowlist entries that name no unreached function"
