"""The README's Python API tour runs, and its quoted values hold."""

import ast
import re
from decimal import Decimal
from importlib import resources
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# A trailing comment that quotes a value: a number, then at most a unit
# and a few words ("# 63.397 N/m tip stiffness", "# 0.3631").
QUOTE = re.compile(r"#\s*([-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?)(?:\s+[A-Za-z/ ]*)?$")


def _tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_python_tour_runs_and_matches_its_quoted_values(tmp_path,
                                                        monkeypatch):
    # The tour opens the bundled documents by their source-tree paths.
    data = tmp_path / "src" / "flexokit" / "data"
    data.parent.mkdir(parents=True)
    data.symlink_to(Path(str(resources.files("flexokit") / "data")))
    monkeypatch.chdir(tmp_path)

    source = _tour()
    lines = source.splitlines()
    namespace = {}
    checked = {}
    for stmt in ast.parse(source).body:
        quote = QUOTE.search(lines[stmt.end_lineno - 1])
        if isinstance(stmt, ast.Expr) and quote:
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         namespace)
            text = quote.group(1)
            half_digit = Decimal(10) ** Decimal(text).as_tuple().exponent / 2
            assert abs(Decimal(value) - Decimal(text)) <= half_digit, \
                (ast.unparse(stmt), value, text)
            checked[text] = value
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert set(checked) == {"63.397", "0.3631", "4.163e-4", "0.4899",
                            "0.02627"}
    assert (tmp_path / "sample.stl").is_file()
