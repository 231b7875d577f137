"""Mutation testing of ``src/pimin``: which small edits of the code does tier-1 miss?

Usage, from the repository root::

    python tools/mutants.py REPORT

The checkout is copied, without ``.git`` and caches, to a temporary directory,
and only the copy is mutated. A site is an operator or a number in a statement
inside a function of ``src/pimin/*.py``. ``selfcheck.py`` is left out, because
its oracles judge the rest, and so is ``bench.run_sweep``, so that no mutant
sets how many worker processes a sweep starts. Each site has one mutant:
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/`` and
``and``/``or`` swap, and a number goes 0 -> 1, 1 -> 0 or c -> 2c. ``COUNT``
mutants are drawn at ``SEED``. Each is written into its module by
``ast.unparse`` and runs tier-1 with a fixed Hypothesis seed, in its own
process group, killed at 3 times the clean run's time. The clean run goes
first and must pass. ``ast.unparse`` reformats the whole module, so the test
that matches ``EQUIVALENT`` to this checkout's sites is left out of every run.

REPORT gets one JSON object per line: for each mutant its ``module``,
``function``, ``line``, ``operator``, ``source`` (the line as written),
``status`` and ``failed`` (the failing test ids), and last a ``summary``.
``status`` is ``killed``, ``survived``, ``timeout``, or ``equivalent`` for a
survivor listed in ``EQUIVALENT``. 200 mutants take about 30 min on 2 cores.
"""

import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COUNT = 200
SEED = 1
PYTEST_ARGS = ["-q", "--tb=no", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "--deselect", "tests/test_tools.py::test_every_equivalent_mutant_is_a_site"]
SKIPPED = {("selfcheck.py", None), ("bench.py", "run_sweep")}

SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}
_ops = list(SYMBOLS)
SWAP = {**dict(zip(_ops[::2], _ops[1::2])), **dict(zip(_ops[1::2], _ops[::2]))}

# Survivors that no test can fairly tell from the code, keyed by (module,
# function, source line, operator, which such site of the line), so that an
# edit elsewhere in the module keeps the key.
EQUIVALENT = {
    ("bench.py", "run_trial", "runtime_ms = (time.perf_counter() - t0) * 1e3", "1000.0 -> 2000.0",
     0): "a wall-clock reading, which no test can pin",
    ("linalg.py", "clipped_eigenvalues",
     "cutoff = EIG_ZERO_REL * float(np.abs(lam).max()) if lam.size else 0.0", "0.0 -> 1.0",
     0): "the cutoff of an empty spectrum, which clips nothing",
    ("metrics.py", "comm_snr", "m_t = gram.shape[0]", "0 -> 1", 0): "gram is checked square",
    ("sdp.py", "dim", "return self.obj.shape[0]", "0 -> 1", 0): "obj is checked square",
    ("rcg.py", "_dual_side", "return dim > 2 * n_terms", "> -> >=", 0):
        "either side of the normal equations gives the same step",
    ("scenario.py", "_cn_matrix", "out = (rng.standard_normal((rows, cols)) + 1j * "
     "rng.standard_normal((rows, cols))) \\", "+ -> -", 0):
        "the conjugate draw has the same distribution",
    ("scenario.py", "generate_channels", "children = rng.spawn(10 + config.Q)", "10 -> 20", 0):
        "a child stream does not depend on how many are spawned after it",
    ("sdp.py", "solve_sdp", "if (margin < 0.0).any():", "< -> <=", 0):
        "adds only a face search whose mixing weight is 0",
    ("sdp.py", "solve_sdp", "if (margin < 0.0).any():", "0.0 -> 1.0", 0):
        "adds only a face search whose mixing weight is 0",
    ("sdp.py", "solve_sdp", "where=margin < 0.0, initial=0.0)", "< -> <=", 0):
        "a zero margin adds a ratio of 0 to a maximum that starts at 0",
    ("sdp.py", "solve_sdp", "where=margin < 0.0, initial=0.0)", "0.0 -> 1.0", 1):
        "a margin in [0, 1) adds a ratio of at most 0 to a maximum that starts at 0",
    ("sdp.py", "solve_sdp", "beta = np.max(margin / np.minimum(margin - y_margin, -1e-300),",
     "1e-300 -> 2e-300", 0): "the floor only keeps a masked-out division finite",
    ("sdp.py", "solve_sdp", "if violation <= TOL:", "<= -> <", 0):
        "the two differ only at a violation exactly equal to TOL",
    ("sdp.py", "solve_sdp", "if miss > TOL * scale:", "> -> >=", 0):
        "the two differ only at a miss exactly equal to TOL * scale",
    ("bccd.py", "_idle_rule", "return grad_tol > 0.0 and k * (math.sqrt(p_pi) + roundoff) <= "
     "0.5 * grad_tol", "<= -> <", 0):
        "the two differ only where the bound is exactly half the tolerance",
}


class Mutant(NamedTuple):
    module: str
    index: int
    function: str
    line: int
    operator: str
    source: str
    nth: int

    @property
    def key(self):
        return self.module, self.function, self.source, self.operator, self.nth


def sites(tree: ast.Module, module: str):
    """``(node, i, function)`` for each site in walk order; ``i`` picks a comparison's operator."""
    seen = set()
    for func in ast.walk(tree):
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or (module, func.name) in SKIPPED):
            continue
        for node in (n for stmt in func.body for n in ast.walk(stmt)):
            if id(node) in seen:
                continue    # inside a nested function, met first as part of the outer one
            seen.add(id(node))
            if isinstance(node, ast.Compare):
                yield from ((node, i, func.name) for i, op in enumerate(node.ops)
                            if type(op) in SWAP)
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                if type(node.op) in SWAP:
                    yield node, 0, func.name
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                yield node, 0, func.name


def mutate(node: ast.AST, i: int) -> str:
    """Change ``node`` in place; the change as ``old -> new``."""
    if isinstance(node, ast.Constant):
        old = node.value
        node.value = type(old)(1) if old == 0 else type(old)(0) if old == 1 else 2 * old
        return f"{old!r} -> {node.value!r}"
    old = node.ops[i] if isinstance(node, ast.Compare) else node.op
    new = SWAP[type(old)]()
    if isinstance(node, ast.Compare):
        node.ops[i] = new
    else:
        node.op = new
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def mutants(package: Path) -> list[Mutant]:
    """Every mutant of ``package``, in a fixed order."""
    found = []
    for path in sorted(package.glob("*.py")):
        if (path.name, None) in SKIPPED:
            continue
        text = path.read_text()
        lines = text.splitlines()
        for index, (node, i, function) in enumerate(sites(ast.parse(text), path.name)):
            source, operator = lines[node.lineno - 1].strip(), mutate(node, i)
            nth = sum(m.key == (path.name, function, source, operator, m.nth) for m in found)
            found.append(Mutant(path.name, index, function, node.lineno, operator, source, nth))
    return found


def mutated_source(text: str, module: str, index: int) -> str:
    tree = ast.parse(text)
    node, i, _ = list(sites(tree, module))[index]
    mutate(node, i)
    return ast.unparse(tree)


def tier1(copy: Path, timeout: float | None) -> tuple[str, list[str], float]:
    """``(status, failing test ids, seconds)`` of one tier-1 run in ``copy``."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)    # no replay of a past mutant
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", *PYTEST_ARGS], cwd=copy, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", [], time.monotonic() - start
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    status = "killed" if proc.returncode else "survived"
    return status, failed, time.monotonic() - start


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: mutants.py REPORT; got {argv}", file=sys.stderr)
        return 1
    report = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "*.egg-info"))
        status, failed, clean = tier1(copy, None)
        if status != "survived":
            print(f"the clean tier-1 run {status}: {failed}", file=sys.stderr)
            return 1
        package = copy / "src" / "pimin"
        every = mutants(package)
        counts = Counter()
        with report.open("w", encoding="utf-8") as fh:
            for m in sorted(random.Random(SEED).sample(every, min(COUNT, len(every)))):
                path = package / m.module
                text = path.read_text()
                path.write_text(mutated_source(text, m.module, m.index))
                try:
                    status, failed, seconds = tier1(copy, 3 * clean)
                finally:
                    path.write_text(text)
                if status == "survived" and m.key in EQUIVALENT:
                    status = "equivalent"
                counts[status] += 1
                entry = {"module": m.module, "function": m.function, "line": m.line,
                         "operator": m.operator, "source": m.source, "status": status,
                         "failed": failed}
                fh.write(json.dumps(entry) + "\n")
                fh.flush()
                print(f"{m.module}:{m.line} {m.operator}: {status} in {seconds:.1f} s",
                      file=sys.stderr, flush=True)
            summary = (f"{sum(counts.values())} mutants of {len(every)} sites: "
                       + ", ".join(f"{counts[s]} {s}" for s in
                                   ("killed", "survived", "timeout", "equivalent"))
                       + f"; clean tier-1 {clean:.1f} s")
            fh.write(json.dumps({"summary": summary}) + "\n")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
