"""List the lines of ``src/activemc`` that the Tier-1 suite never runs.

Runs ``pytest tests`` in this process under ``sys.settrace`` and
``threading.settrace``, recording every line executed in a module of the
package. A module's executable lines are the lines of every code object
compiled from its source, read with ``co_lines()``. Each executable line
that never ran is printed as ``file:line: source``. The run exits 1 when
such a line is not in ``ALLOWED``, when an ``ALLOWED`` entry matches no
unrun line (it ran, or its source changed), or when the suite fails.

No ``coverage`` package is needed, and pytest does not collect this file.
The suite takes about twice its untraced time. Run from the repo root:

    PYTHONPATH=src python3 tests/unexecuted_lines.py [extra pytest args]
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "activemc"

# (file name, stripped source line) -> why the suite need not run it
ALLOWED = {
    ("cli.py", "sys.exit(cli_main())"):
        "body of the console-script entry point; tests call cli_main in process",
    ("cli.py", "main()"):
        "runs only under python -m activemc.cli, which tests start as a subprocess",
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction compiled from ``path``, nested code included."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Exit code of ``pytest args`` and the lines run, per file of the package."""
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hit.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: list[str]) -> int:
    status, hit = traced_run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    import activemc

    if Path(activemc.__file__).resolve().parent != PACKAGE.resolve():
        print(f"activemc imported from {activemc.__file__}, not {PACKAGE}; set PYTHONPATH=src")
        return 1

    unrun, unused = [], set(ALLOWED)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hit.get(str(path), set())):
            key = (path.name, source[line - 1].strip())
            unused.discard(key)
            note = ALLOWED.get(key)
            print(f"{path.relative_to(ROOT)}:{line}: {key[1]}"
                  + (f"  [allowed: {note}]" if note else ""))
            if note is None:
                unrun.append(key)
    for name, text in sorted(unused):
        print(f"stale allowlist entry, no unrun line matches: {name}: {text}")
    print(f"{len(unrun)} unrun lines outside the allowlist, {len(unused)} stale entries, "
          f"pytest exit status {status}")
    return int(bool(unrun or unused or status))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
