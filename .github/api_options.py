"""Count the public callables of nonstat and their defaulted parameters.

    python3 .github/api_options.py

A public callable is a class or function named in nonstat.__all__ or in the
__all__ of one of its submodules, counted once however many lists name it,
if it has a signature: the exception classes, which keep their builtin
constructors, have none.  Its options are the parameters of its signature
that have a default; a class's signature is that of the class itself (its
constructor's, without self).  Each callable with an option gets one line,
and the last line gives the totals, which a change reports as its option
delta, as it reports its src/ lines.
"""

import importlib
import inspect
import os
import pkgutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nonstat  # noqa: E402


def public_signatures() -> dict:
    """The signature of each public callable, by qualified name."""
    submodules = [importlib.import_module(f"nonstat.{info.name}") for info in pkgutil.iter_modules(nonstat.__path__)]
    found = {}
    for module in [nonstat, *submodules]:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                found.setdefault(id(obj), obj)
    table = {}
    for obj in found.values():
        try:
            table[f"{obj.__module__}.{obj.__qualname__}"] = inspect.signature(obj)
        except ValueError:  # a builtin constructor
            pass
    return table


def main() -> int:
    total = 0
    table = public_signatures()
    for qualname, signature in sorted(table.items()):
        names = [p.name for p in signature.parameters.values() if p.default is not inspect.Parameter.empty]
        total += len(names)
        if names:
            print(f"{qualname:<40}{len(names):>4}  {', '.join(names)}")
    print(f"{'total':<40}{total:>4}  defaulted parameters of {len(table)} public callables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
