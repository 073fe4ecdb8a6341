"""The README's library tour runs as written.

Every line of the tour is executed in order.  An expression line whose
comment starts with a tuple of rationals, `True` or `None` must compute
that value, so the documented API cannot drift from the package.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
RATIONAL = r"-?\d+(?:/\d+)?"
EXPECTED = re.compile(rf"(\(\s*{RATIONAL}(?:\s*,\s*{RATIONAL})*\s*,?\s*\)|True|None)(?:$|[:,\s])")


def tour() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("\n```", start)]


def test_library_tour_values():
    source = tour()
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        promise = EXPECTED.match(comments.get(stmt.end_lineno, ""))
        if not isinstance(stmt, ast.Expr) or promise is None:
            exec(compile(code, str(README), "exec"), namespace)
            continue
        got, literal = eval(compile(code, str(README), "eval"), namespace), promise.group(1)
        if literal in ("True", "None"):
            assert got is ast.literal_eval(literal), code
        else:
            assert tuple(got) == tuple(map(Fraction, re.findall(RATIONAL, literal))), code
        checked.append(code)
    assert len(checked) == 9 and "mean_via_dual_action(t3).weights" in checked
