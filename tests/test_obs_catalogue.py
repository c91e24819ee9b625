#!/usr/bin/env python3
"""OBSERVABILITY.md's "Counters/gauges" table against the metric registry.

Every counter("..."), gauge("...") or histogram("...") registered under src/
must appear backquoted in the table, and every name in the table's first
column must be registered (a `prefix.*` entry must match at least one
registered name), so the catalogue never lists a metric the code dropped or
misses one it added.

    python3 tests/test_obs_catalogue.py
"""

import re
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALL = re.compile(r"\b(?:counter|gauge|histogram)\(\s*")
LITERAL = re.compile(r'"([^"\\]+)"')
DECLARATION = re.compile(r"std::string_view\b")
TICKED = re.compile(r"`([^`]+)`")


def registered_names():
    """{name: "file:line"} for every registration under src/, plus a list of
    calls whose argument is not a string literal."""
    names, non_literal = {}, []
    for path in sorted((ROOT / "src").rglob("*.[ch]pp")):
        text = path.read_text(encoding="utf-8")
        for call in CALL.finditer(text):
            where = f"{path.relative_to(ROOT)}:{text.count(chr(10), 0, call.start()) + 1}"
            literal = LITERAL.match(text, call.end())
            if literal:
                names.setdefault(literal.group(1), where)
            elif not DECLARATION.match(text, call.end()):
                non_literal.append(where)
    return names, non_literal


def catalogue_rows():
    """The rows of the table that follows the "Counters/gauges" line, each a
    list of cells."""
    lines = (ROOT / "OBSERVABILITY.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Counters/gauges"))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip() and rows:
            break
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[2:]  # drop the header and the |---| separator


class Catalogue(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.names, cls.non_literal = registered_names()
        cls.rows = catalogue_rows()

    def test_every_registration_uses_a_literal(self):
        self.assertEqual(self.non_literal, [])
        self.assertGreater(len(self.names), 0)

    def test_every_registered_name_has_a_row(self):
        listed = {name for row in self.rows for cell in row for name in TICKED.findall(cell)}
        missing = [f"{name} ({where})" for name, where in sorted(self.names.items())
                   if name not in listed]
        self.assertEqual(missing, [])

    def test_every_listed_name_is_registered(self):
        self.assertGreater(len(self.rows), 0)
        stale = []
        for row in self.rows:
            for name in TICKED.findall(row[0]):
                if name.endswith(".*"):
                    if not any(n.startswith(name[:-1]) for n in self.names):
                        stale.append(name)
                elif name not in self.names:
                    stale.append(name)
        self.assertEqual(stale, [])


if __name__ == "__main__":
    unittest.main()
