"""Every row of ``tests/mutants.py`` still applies to the package.

A row whose old text has moved away, or occurs twice, stops the mutant tool
only when someone runs it, and a row whose edit breaks the syntax shows
only as a broken mutant; these checks read the files and start no process.
"""
import ast

import pytest

from mutants import MUTANTS, REPO


def test_mutant_names_are_unique():
    names = [row[0] for row in MUTANTS]
    assert len(names) == len(set(names))


ROWS = pytest.mark.parametrize("path, old, new", [row[1:4] for row in MUTANTS],
                               ids=[row[0] for row in MUTANTS])


@ROWS
def test_a_mutants_old_text_occurs_once_in_its_file(path, old, new):
    assert (REPO / path).read_text().count(old) == 1
    assert new != old


@ROWS
def test_a_mutants_edit_leaves_its_file_parseable(path, old, new):
    ast.parse((REPO / path).read_text().replace(old, new), filename=path)
