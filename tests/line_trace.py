"""Opt-in pytest plugin: the lines of ``src/`` that a test run never executes.

    PYTHONPATH=tests python -m pytest -q -p line_trace

From configuration on, every frame whose code lives in the ``qcontract``
package is traced with ``sys.settrace`` (standard library only), so module
bodies run under the trace too.  At the end the plugin writes each
executable line that never ran to ``untraced_lines.txt`` in the working
directory, one ``path:line`` a line with paths relative to the rootdir, and
prints the count per file.  A line is executable when the compiler starts
a line-table entry there (``dis.findlinestarts`` over every code object of
the file), so a dead branch shows, not just a dead function.  A branch that
shares its line with live code cannot show.  Subprocesses that a test
starts are not traced, and the traced run is about three times slower.
"""
from __future__ import annotations

import dis
import importlib.util
import os
import sys
import threading
from collections import Counter


def pytest_configure(config):
    # find_spec locates the package without running it
    root = os.path.dirname(importlib.util.find_spec("qcontract").origin) + os.sep
    config.pluginmanager.register(LineTrace(root), "line_trace_lines")


def _executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        todo.extend(c for c in co.co_consts if isinstance(c, type(co)))
    return lines


class LineTrace:
    """Records (file, line) for every line run under ``root`` from creation
    until the terminal summary, which reports the executable lines missed."""

    def __init__(self, root: str):
        self.root = root
        self.hits: set[tuple[str, int]] = set()
        threading.settrace(self._trace_calls)
        sys.settrace(self._trace_calls)

    def _trace_lines(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._trace_lines

    def _trace_calls(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None
        self.hits.add((filename, frame.f_lineno))
        return self._trace_lines

    def pytest_terminal_summary(self, terminalreporter, exitstatus, config):
        sys.settrace(None)
        threading.settrace(None)
        missed = []
        for dirpath, _, names in os.walk(self.root):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    missed.extend((path, line) for line in sorted(_executable_lines(path))
                                  if (path, line) not in self.hits)
        rel = {path: os.path.relpath(path, config.rootpath) for path, _ in missed}
        out = "untraced_lines.txt"
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(f"{rel[path]}:{line}\n" for path, line in sorted(missed))
        counts = Counter(rel[path] for path, _ in missed)
        terminalreporter.write_sep("-", f"src lines never executed: {len(missed)} "
                                        f"(listed in {out})")
        for path, n in sorted(counts.items()):
            terminalreporter.write_line(f"{n:6d}  {path}")
