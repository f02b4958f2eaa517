"""Every public name has a caller outside the tests."""

import inspect
import re
from pathlib import Path

import cantorqc

ROOT = Path(__file__).resolve().parents[1]


def _texts(directory, skip=()):
    return [p.read_text() for p in sorted(directory.glob("*.py")) if p.name not in skip]


def test_every_public_name_is_used_by_the_library_or_the_benchmark():
    library = _texts(ROOT / "src" / "cantorqc", skip=("__init__.py",))
    benchmark = _texts(ROOT / "perfbench")
    unused = []
    for name in cantorqc.__all__:
        if inspect.ismodule(getattr(cantorqc, name)):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        in_library = sum(len(word.findall(t)) for t in library)
        # one occurrence in the library is the name's own definition
        if in_library < 2 and not any(word.search(t) for t in benchmark):
            unused.append(name)
    assert unused == []
