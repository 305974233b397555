#!/usr/bin/env python3
"""Functions of the package that no CLI command enters at its defaults.

Runs every `cli.COMMANDS` entry at its defaults in this process, writing
into OUT, under `sys.setprofile`.  Then prints each function defined in
src/sphere_sapt (nested functions included; lambdas and comprehensions
left out) that was never entered, with its line count.  A function listed
here is reached, if at all, only by the tests or by non-default options.
The package is imported before the profiler starts, so a function that
ran only at import would be listed too.
"""

import inspect
import os
import sys
from pathlib import Path

from sphere_sapt import cli

OUT = os.environ.get("SPHERE_SAPT_OUT", "out/unreached")
PKG = Path(cli.__file__).resolve().parent


def _functions(code, module: str):
    """(module, qualname, first line, line count) of every def in a code object."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                last = max(line for _, _, line in const.co_lines() if line is not None)
                yield module, const.co_qualname, const.co_firstlineno, last - const.co_firstlineno + 1
            yield from _functions(const, module)


def run():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for name in cli.COMMANDS:
            cli.main([name, "--out", OUT])
    finally:
        sys.setprofile(None)
    entered = {(str(Path(f).resolve()), line) for f, line in entered}

    total = 0
    for path in sorted(PKG.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for module, qualname, first, lines in _functions(code, path.stem):
            if (str(path), first) not in entered:
                total += lines
                print(f"{lines:5d}  {module}.{qualname.replace('<locals>.', '')}")
    print(f"{total:5d}  lines in functions no command enters at its defaults")
    return 0


if __name__ == "__main__":
    sys.exit(run())
