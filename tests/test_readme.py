"""README's library quick start runs as written, and so does the regret
recipe README gives after it, each importing every name from ``abrsim``."""

import ast
import math
import re
from pathlib import Path

from abrsim import benchmark_window, regret_and_residuals, solve_benchmark

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_section() -> str:
    """README's "Library quick start" section, up to the next heading."""
    return README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]


def test_the_quick_start_and_its_regret_recipe_run(capsys):
    section = quick_start_section()
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.walk(ast.parse(code)) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and node.module == "abrsim" for node in imports)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 2

    # the recipe, as README writes it, measures the session against the
    # rates it met, over the window of its T epochs
    recipe = " ".join(re.search(r"`(solve_benchmark\(manifest,.*?\))`", section, re.S).group(1).split())
    manifest, state = namespace["manifest"], namespace["state"]
    v = manifest.segment_duration_s
    namespace.update(benchmark_window=benchmark_window, solve_benchmark=solve_benchmark,
                     T=len(state.history), V=v, b_max_s=120.0)
    bench = eval(recipe, namespace)
    assert len(bench.omega_star) == manifest.num_levels and math.isclose(sum(bench.omega_star), 1.0)
    series = regret_and_residuals(state.history, manifest, bench, v, b_max_s=120.0)
    assert len(series.regret_rate) == manifest.num_segments and math.isfinite(series.regret_rate[-1])
