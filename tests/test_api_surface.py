"""The option count that ROADMAP.md tracks, pinned so a new option is a deliberate change.

An option is a keyword parameter with a default of a public function or
method of ``similarity``, ``transform``, ``verify`` or ``oracle``, or a field
of ``GridSpec`` or ``OracleConfig``.  When an option is added or removed,
update ``OPTION_COUNT`` here and the count in ROADMAP.md together.
"""

import dataclasses
import inspect

from stefan_reciprocal import oracle, similarity, transform, verify
from stefan_reciprocal.oracle import OracleConfig
from stefan_reciprocal.verify import GridSpec

OPTION_COUNT = 18


def _options():
    names = [
        f"{cls.__name__}.{f.name}"
        for cls in (GridSpec, OracleConfig)
        for f in dataclasses.fields(cls)
    ]
    for mod in (similarity, transform, verify, oracle):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):
                members = [
                    (f"{name}.{attr}", getattr(member, "__func__", member))
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                ]
            else:
                continue
            names += [
                f"{qualname}({param.name})"
                for qualname, fn in members
                if inspect.isfunction(fn)
                for param in inspect.signature(fn).parameters.values()
                if param.default is not inspect.Parameter.empty
            ]
    return names


def test_option_count():
    names = _options()
    assert len(names) == len(set(names))
    assert len(names) == OPTION_COUNT, names
