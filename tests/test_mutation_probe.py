"""Every hand mutant of ``mutation_probe`` still applies to the source, so a
refactor that moves a fragment fails tier-1 here instead of leaving the probe
a STALE entry to find in a full run."""

import pathlib

from mutation_probe import MUTANTS, applies

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bundleflow"


def test_every_mutant_applies():
    stale = [name for name, (module, old, new) in MUTANTS.items()
             if not applies((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), old, new)]
    assert stale == []
