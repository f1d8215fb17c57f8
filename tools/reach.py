"""List the functions of csdyn that no check, CLI run or benchmark pass runs.

Traces, with `sys.setprofile`, the import of csdyn, `verify_suite("all", 7)`,
every config of `result_digest.cli_configs(7)` run through `cli.main`, and one
pass of each perfbench plan (cli, ensemble-small, ensemble-large, made in a
temporary directory, the cli plan's `--jobs 1` classify reference first).
Then prints `file:line name` for each code object of the csdyn package that
never started, leaving out module and class bodies; the count goes to
stderr.  Only this process is traced: the cli plan's classify at two jobs
runs in worker processes, which the `--jobs 1` reference covers.  It sets
`sys.dont_write_bytecode`, so nothing is written under perfbench/.

    PYTHONPATH=src python3 tools/reach.py
"""

from __future__ import annotations

import glob
import importlib
import inspect
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
PLANS = ("cli", "ensemble-small", "ensemble-large")


def traced(*runs):
    """The code objects that start in this thread while the runs run."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(None)
    return seen


def _functions(path):
    """The code objects compiled from the file at path that make a new scope:
    functions, lambdas and comprehensions, not module or class bodies."""
    with open(path, "rb") as fh:
        stack = [compile(fh.read(), path, "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            yield code


def unreached(seen):
    """(path, line, name) of each csdyn function whose code is not in seen,
    sorted.  A code object compares equal to one compiled from the same
    source, wherever it was loaded from."""
    import csdyn

    ran = {(os.path.realpath(c.co_filename), c) for c in seen}
    package = os.path.dirname(os.path.realpath(csdyn.__file__))
    return sorted(
        (path, code.co_firstlineno, code.co_qualname)
        for path in glob.glob(os.path.join(package, "*.py"))
        for code in _functions(path) if (path, code) not in ran
    )


def _import():
    importlib.import_module("csdyn.cli")


def _verify():
    from csdyn.certificates import verify_suite

    verify_suite("all", SEED)


def _cli():
    sys.path.insert(0, HERE)
    import result_digest

    for _ in result_digest.cli_digests(SEED):  # runs each config in a temporary directory
        pass


def _perfbench():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workloads.prepare_cli(SEED, tmp)
        for name in PLANS:
            for op in workloads.WORKLOADS[name](SEED, tmp).ops:
                if (why := op.check(op.call())) is not None:
                    print(f"{name} {op.name}: {why}", file=sys.stderr)


def main():
    sys.dont_write_bytecode = True
    never = unreached(traced(_import, _verify, _cli, _perfbench))
    for path, line, name in never:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(never)} code objects never ran", file=sys.stderr)


if __name__ == "__main__":
    main()
