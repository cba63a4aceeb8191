"""The mutation check in mutants.py runs outside Tier-1, since it takes
about two minutes on a 2-CPU host.  This test keeps its list from drifting: a refactor that
rewrites a mutant's source text, or renames a test that kills it, fails
here at once instead of when someone next runs the script."""

from __future__ import annotations

import re

from mutants import MUTANTS, ROOT


def test_every_mutant_text_occurs_once_and_names_existing_tests():
    problems = []
    for m in MUTANTS:
        text = (ROOT / "src" / "cyclosum" / m.path).read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            problems.append(f"{m.name}: text occurs {text.count(m.old)} times in {m.path}")
        for test in m.tests:
            path, name = test.split("::")
            func = re.escape(name.split("[")[0])
            if not re.search(rf"^def {func}\(", (ROOT / path).read_text(encoding="utf-8"), re.M):
                problems.append(f"{m.name}: no test {name} in {path}")
    assert not problems, "\n".join(problems)
