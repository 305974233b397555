#!/usr/bin/env python3
"""Functions of the package that no CLI command enters at its defaults.

Runs every `cli.COMMANDS` entry at its defaults in this process, writing
into OUT, under `sys.setprofile`.  Then prints each function defined in
src/sphere_sapt (nested functions included; lambdas and comprehensions
left out) that was never entered, with its line count.  A function listed
here is reached, if at all, only by the tests or by non-default options.
The package is imported before the profiler starts, so a function that
ran only at import would be listed too.  Its caches are cleared first, so
a function behind a cache that an earlier caller in the same process
filled (the test suite, say) is still entered.

KEEP names the functions that may stay unreached, each with its reason;
`run()` returns 1 if any other function is listed, so test-only code that
enters src/ fails the gate, and also if a KEEP name is not listed (it was
entered or is no longer defined), so KEEP cannot go stale.
"""

import inspect
import os
import sys
from pathlib import Path

from sphere_sapt import cli

OUT = os.environ.get("SPHERE_SAPT_OUT", "out/unreached")
PKG = Path(cli.__file__).resolve().parent
KEEP = {
    "cli._nonfinite_key": "error path: names the key of a non-finite summary value",
    "model.build_hamiltonian": "wrapped by name in bench/spans.py",
    "spin.tensor_basis": "wrapped by name in bench/spans.py; the tests' full-basis entry point",
    "swq.SWKernel.samples": "wrapped by name in bench/spans.py; the tests compare it with the dense oracle",
}


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

    for module in [m for n, m in sys.modules.items() if n.startswith("sphere_sapt.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sys.setprofile(profile)
    try:
        for name in cli.COMMANDS:
            cli.main([name, "--out", OUT])
    finally:
        sys.setprofile(None)
    entered = {(str(Path(f).resolve()), line) for f, line in entered}

    total, unkept, listed = 0, [], set()
    for path in sorted(PKG.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for module, qualname, first, lines in _functions(code, path.stem):
            if (str(path), first) not in entered:
                name = f"{module}.{qualname.replace('<locals>.', '')}"
                listed.add(name)
                total += lines
                print(f"{lines:5d}  {name}  # {KEEP.get(name, 'not in KEEP')}")
                if name not in KEEP:
                    unkept.append(name)
    print(f"{total:5d}  lines in functions no command enters at its defaults")
    if unkept:
        print(f"unreached and not in KEEP: {', '.join(unkept)}")
    stale = sorted(set(KEEP) - listed)
    if stale:
        print(f"in KEEP but entered or not defined: {', '.join(stale)}")
    return 1 if unkept or stale else 0


if __name__ == "__main__":
    sys.exit(run())
