"""The README's library quickstart runs as written."""

import re
from itertools import combinations
from pathlib import Path

from heafusion import Alloy, Dataset, parse_dataset, serialize_dataset
from heafusion.alloys import UNIVERSES

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    """The first python code block under the "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    # quaternaries over ten E1 symbols, positive iff within one planted
    # group; the quickstart's candidate Fe-Co-Ni-Zr stays out of training
    symbols = UNIVERSES["E1"][:5] + UNIVERSES["E1"][-5:]
    group = set(symbols[:5])
    alloys = tuple(Alloy(elems) for elems in combinations(symbols, 4) if set(elems) != {"Fe", "Co", "Ni", "Zr"})
    labels = [set(a.elements) <= group or not set(a.elements) & group for a in alloys]
    serialize_dataset(Dataset("planted", alloys, labels, symbols), tmp_path / "alloys.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart(), str(README), "exec"), {})
    score, n_analogies = capsys.readouterr().out.split()
    assert 0.0 <= float(score) <= 1.0
    assert int(n_analogies) > 0


def test_toy_dataset_example_runs(tmp_path, monkeypatch):
    # the python block that writes toy.csv in the CLI walkthrough
    block = re.search(r"python3 - <<'EOF'.*?\n(.*?)\nEOF\n", README.read_text(encoding="utf-8"), re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    toy = parse_dataset(tmp_path / "toy.csv")
    assert len(toy) == 70 and toy.n_positive == 35  # C(8, 4) quaternaries, half of them hold Fe
