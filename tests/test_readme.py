"""README's library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python block under README's '## Library' heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_writes_the_day(tmp_path, monkeypatch):
    # the example's out_dir is relative, so it lands under tmp_path
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    paths = names["paths"]
    assert sorted(paths) == ["hours", "summary", "trace"]
    for path in paths.values():
        assert path.resolve().parent == (tmp_path / "out" / "day").resolve()
        assert path.read_text().count("\n") > 1
