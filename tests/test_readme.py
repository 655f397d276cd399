"""README's library quick start and command-line block run as written, on a generated train.csv."""
import json
import re
import shlex
from pathlib import Path

import numpy as np

from limase import Dataset, RandomStream, Task, compute_feature_meta, write_csv
from limase.cli import main

README = Path(__file__).parents[1] / "README.md"


def section(heading: str) -> str:
    """The README's text under "## heading", up to the next such heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def quick_start() -> str:
    """The python block under the README's "## Library quick start" heading."""
    return re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)


def write_train_csv(path: Path, n: int, d: int) -> None:
    X = RandomStream(70).normal_matrix(n, d)
    price = 3.0 * X[:, 0] + X[:, 1] * X[:, 2] + np.sin(X[:, -1])
    data = Dataset(compute_feature_meta(X, [f"f{j}" for j in range(d)]), X, price,
                   Task.regression())
    write_csv(data, path, target_column="price")


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    write_train_csv(tmp_path / "train.csv", 200, 5)
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    res = namespace["res"]
    assert res.explanation.phi.shape == (5,)
    assert abs(res.explanation.base_value + res.explanation.phi.sum()
               - res.explanation.fx) <= 1e-9
    assert capsys.readouterr().out.count("\n") >= 3


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Each command of the "## Command line" sh block exits 0 and writes its table's artifacts."""
    text = section("Command line")
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    artifacts = {name: re.findall(r"`([\w.]+)`", files) for name, files in
                 re.findall(r"^\| `(\w+)` \| ([^|]*) \|", text, re.M)}
    # 120 rows keep bench's fixed 100 kernelshap rows fast
    write_train_csv(tmp_path / "train.csv", 120, 3)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [["limase", name] for name in artifacts]
    for argv in commands:
        capsys.readouterr()
        assert main(argv[1:]) == 0, argv
        if argv[1] == "inspect":
            assert json.loads(capsys.readouterr().out)["n_rows"] == 120
        for name in artifacts[argv[1]]:
            assert (Path(argv[argv.index("--out") + 1]) / name).is_file(), (argv, name)
