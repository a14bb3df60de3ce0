"""The public surface: what ``niepkit`` exports and what the README shows."""

import dataclasses
import re
from pathlib import Path

import niepkit

README = Path(__file__).resolve().parents[1] / "README.md"

#: Names cut from the public surface; none may come back unnoticed.
REMOVED = {
    "PairingReport",
    "RootOfUnity",
    "build_abscirc_combination",
    "classify_pairing",
    "root_of_unity",
}


def _library_tour():
    """The ``python`` block under the README's "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_readme_library_tour_runs():
    exec(compile(_library_tour(), str(README), "exec"), {})


def test_all_resolves_sorted_and_without_removed_names():
    names = niepkit.__all__
    for name in names:
        assert hasattr(niepkit, name), name
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert REMOVED.isdisjoint(names)
    assert not any(hasattr(niepkit, name) for name in REMOVED)


def test_condition_report_has_no_bound_value():
    # bound_value was a second head bound that no verdict read
    fields = [f.name for f in dataclasses.fields(niepkit.ConditionReport)]
    assert fields == ["satisfied", "witness"]
