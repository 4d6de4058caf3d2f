"""Lines of ``reeb_atlas`` that no run executes: the sessions of
``tests/report_digests.py``, and with ``--pytest`` the test suite too.

    PYTHONPATH=src python tests/line_reach.py OUT [--pytest [PYTEST_ARG ...]]

Everything runs in this one process under a ``sys.settrace`` line tracer
limited to the package's files; tracing starts before the package is
imported, so module-level lines count as well.  The sessions write into
``OUT`` as ``report_digests.py`` does.  With ``--pytest`` the arguments
after it go to ``pytest.main`` (the whole of ``tests/``, quietly, when
there are none).  A line is executable when it starts a bytecode
instruction of the module's compiled code, nested code objects included.
Each executable line that no run reached is printed as
``path:line: source``, then a count per file.  The standard library is
all this needs; pytest does not collect this file.
"""

import contextlib
import io
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reeb_atlas"


def executable_lines(path):
    """Line numbers that start bytecode of the module at ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run):
    """The (file, line) pairs of the package that ``run()`` executes, and
    its result."""
    prefix = str(PACKAGE) + os.sep
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return hits, result


def sessions(out):
    """Run every ``report_digests`` session into ``out``, quietly."""
    sys.path.insert(0, str(ROOT / "tests"))
    import report_digests

    cwd = os.getcwd()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            report_digests.run(out)
    finally:
        os.chdir(cwd)


def main(argv):
    if not argv or argv[0].startswith("-"):
        sys.exit("usage: line_reach.py OUT [--pytest [PYTEST_ARG ...]]")
    out = os.path.abspath(argv[0])
    pytest_args = None
    if argv[1:2] == ["--pytest"]:
        pytest_args = argv[2:] or [str(ROOT / "tests"), "-q"]
    elif len(argv) > 1:
        sys.exit(f"unknown arguments: {' '.join(argv[1:])}")

    def run():
        sessions(out)
        if pytest_args is not None:
            import pytest
            return pytest.main(pytest_args)
        return 0

    hits, code = traced(run)
    missed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sorted(executable_lines(path) - hits[str(path)])
        missed[path] = lines
        text = path.read_text().splitlines()
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print()
    for path, lines in missed.items():
        print(f"{len(lines):5d}  {path.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
