"""README's library quick start runs as written, on a generated train.csv."""
import re
from pathlib import Path

import numpy as np

from limase import Dataset, RandomStream, Task, compute_feature_meta, write_csv

README = Path(__file__).parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the README's "## Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    X = RandomStream(70).normal_matrix(200, 5)
    price = 3.0 * X[:, 0] + X[:, 1] * X[:, 2] + np.sin(X[:, 3])
    data = Dataset(compute_feature_meta(X, [f"f{j}" for j in range(5)]), X, price,
                   Task.regression())
    write_csv(data, tmp_path / "train.csv", target_column="price")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    res = namespace["res"]
    assert res.explanation.phi.shape == (5,)
    assert abs(res.explanation.base_value + res.explanation.phi.sum()
               - res.explanation.fx) <= 1e-9
    assert capsys.readouterr().out.count("\n") >= 3
