"""Argument checks of the comparison tools in tools/, which refuse before any training run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOLS = ("output_digests",)


def _tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _refusal(module, argv, capsys) -> str:
    # a run would call this; a refusal must come before it
    def no_run(*args, **kwargs):
        raise AssertionError("the tool started a run")

    module.digest_table = no_run
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("name", TOOLS)
def test_src_without_a_package_exits_2(name, tmp_path, capsys):
    err = _refusal(_tool(name), ["--src", str(SRC), "--src", str(tmp_path)], capsys)
    assert f"{tmp_path} holds no kellyfe package" in err


@pytest.mark.parametrize("name", TOOLS)
def test_third_src_exits_2(name, capsys):
    err = _refusal(_tool(name), ["--src", str(SRC)] * 3, capsys)
    assert "give one --src, or two" in err


def test_history_difference_of_declared_numbers(tmp_path):
    """Identical rows give 0, a changed cell its difference relative to the first file,
    a 0 against a non-zero value inf, and only rows 1-50 count."""
    history_difference = _tool("output_digests").history_difference

    def history(name: str, edit: dict[int, str]) -> Path:
        rows = [edit.get(i, f"{i},{0.5 * i},0.25") for i in range(1, 61)]
        path = tmp_path / name
        path.write_text("\n".join(["iteration,a,b", *rows]) + "\n", encoding="utf-8")
        return path

    def diff(first: dict[int, str], second: dict[int, str]) -> float:
        return history_difference(history("first.csv", first), history("second.csv", second))

    assert diff({}, {}) == 0.0
    assert diff({}, {7: "7,3.5,0.375"}) == 0.5
    assert diff({}, {51: "51,25.5,9.0"}) == 0.0
    assert diff({10: "10,0.0,0.25"}, {10: "10,1e-300,0.25"}) == float("inf")
