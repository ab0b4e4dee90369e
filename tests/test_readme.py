"""The file-format examples in the documentation parse, so that the documented
formats cannot drift from the parsers."""

import re
from pathlib import Path

import pytest

from femspde.elements import ELEMENT_FORMAT_DOC, parse_element_text, validate_element
from femspde.expr import parse
from femspde.problem import parse_problem_text

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def file_format_examples():
    """The code blocks of README's "File formats" section: a problem file,
    then an element file."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```\n(.*?)```", section, re.S)


def test_readme_problem_example_parses(file_format_examples):
    problem_text, _ = file_format_examples
    problem = parse_problem_text(problem_text)
    assert (problem.d, problem.rho_max) == (1, 1)
    assert problem.a == {(1, 1): parse("1 + 0.25*cos(x1)")}
    assert problem.b == {1: parse("0.1")}
    assert problem.sigma == {(1, 1): parse("0.3")}
    assert problem.nu == {}  # nu.1 = "0" is a structural zero
    assert problem.g == {1: parse("0.1")}
    assert [problem.c, problem.f, problem.phi] == [parse("-0.2"), parse("sin(x1)"),
                                                   parse("sin(x1)")]


def test_readme_element_example_builds(file_format_examples):
    _, element_text = file_format_examples
    element = parse_element_text(element_text)
    validate_element(element)
    assert element.name == "custom-hat"
    assert element.gamma == ((-1,), (0,), (1,))
    assert element.psi((0.25,)) == pytest.approx(0.75)


def test_element_format_doc_example_parses():
    example = "\n".join(line[4:] for line in ELEMENT_FORMAT_DOC.splitlines()
                        if line.startswith("    "))
    element = parse_element_text(example)
    assert element.d == 2
    assert len(element.psi.pieces) == 2
