import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "output_diff", Path(__file__).resolve().parent.parent / "tools" / "output_diff.py"
)
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)

SERIES = """\
# bohmsim 0.1.0
# [run] seed = 42
time,ks_distance,mean_position
0.0,0.004,0.001
0.5,0.005,-0.002
1.0,0.006,0.003
"""

REPORT = """\
experiment: equivariance
PASS ks-distance-max: measured=0.006 <= bound=0.02
PASS ks-growth-ratio: measured=1.5 <= bound=2.0
result: ALL PASS
"""


def write_tree(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
    return root


def compare(tmp_path, a: dict[str, str], b: dict[str, str], capsys) -> tuple[int, list[str]]:
    code = output_diff.main([str(write_tree(tmp_path / "a", a)), str(write_tree(tmp_path / "b", b))])
    return code, capsys.readouterr().out.splitlines()


class TestOutputDiff:
    def test_identical_trees_are_the_same(self, tmp_path, capsys):
        files = {"equivariance/series.csv": SERIES, "equivariance/report.txt": REPORT}
        code, lines = compare(tmp_path, files, files, capsys)
        assert code == 0
        assert lines == ["equivariance/report.txt: same", "equivariance/series.csv: same"]

    def test_a_file_in_one_tree_only(self, tmp_path, capsys):
        code, lines = compare(tmp_path, {"x/series.csv": SERIES}, {"y/series.csv": SERIES}, capsys)
        assert code == 1
        assert lines == ["x/series.csv: only in A", "y/series.csv: only in B"]

    def test_echo_lines_are_listed_as_lines(self, tmp_path, capsys):
        b = SERIES.replace("seed = 42", "seed = 1")
        code, lines = compare(tmp_path, {"e/series.csv": SERIES}, {"e/series.csv": b}, capsys)
        assert code == 1
        assert lines == ["e/series.csv: differs", "  - # [run] seed = 42", "  + # [run] seed = 1"]

    def test_a_row_count_change_compares_no_cells(self, tmp_path, capsys):
        b = SERIES.replace("1.0,0.006,0.003\n", "")
        code, lines = compare(tmp_path, {"e/series.csv": SERIES}, {"e/series.csv": b}, capsys)
        assert code == 1
        assert lines == ["e/series.csv: differs", "  rows: 3 in A, 2 in B"]

    def test_numeric_cells_give_the_largest_differences_per_column(self, tmp_path, capsys):
        b = SERIES.replace("0.5,0.005,-0.002", "0.5,0.0051,-0.002").replace("1.0,0.006,0.003", "1.0,0.0062,0.003")
        code, lines = compare(tmp_path, {"e/series.csv": SERIES}, {"e/series.csv": b}, capsys)
        assert code == 1
        assert lines == [
            "e/series.csv: differs",
            "  ks_distance: 2 changed cell(s); largest |B - A| 0.0002 at row 3 (1.0), "
            "largest relative 0.0333 at row 3 (1.0)",
        ]

    def test_largest_absolute_and_relative_can_sit_in_different_rows(self, tmp_path, capsys):
        b = SERIES.replace("0.0,0.004,0.001", "0.0,0.004,0.002").replace("1.0,0.006,0.003", "1.0,0.006,0.0045")
        _, lines = compare(tmp_path, {"e/series.csv": SERIES}, {"e/series.csv": b}, capsys)
        assert lines[1] == (
            "  mean_position: 2 changed cell(s); largest |B - A| 0.0015 at row 3 (1.0), "
            "largest relative 1 at row 1 (0.0)"
        )

    def test_report_checks_are_split_into_cells(self, tmp_path, capsys):
        b = REPORT.replace("PASS ks-growth-ratio: measured=1.5", "FAIL ks-growth-ratio: measured=2.5")
        code, lines = compare(tmp_path, {"e/report.txt": REPORT}, {"e/report.txt": b}, capsys)
        assert code == 1
        assert lines == [
            "e/report.txt: differs",
            "  status: 1 changed text cell(s); first at row 3 (ks-growth-ratio): 'PASS' -> 'FAIL'",
            "  measured: 1 changed cell(s); largest |B - A| 1 at row 3 (ks-growth-ratio), "
            "largest relative 0.667 at row 3 (ks-growth-ratio)",
        ]

    def test_nan_is_compared_as_text(self, tmp_path, capsys):
        b = SERIES.replace("0.5,0.005,-0.002", "0.5,nan,-0.002")
        _, lines = compare(tmp_path, {"e/series.csv": SERIES}, {"e/series.csv": b}, capsys)
        assert lines[1] == "  ks_distance: 1 changed text cell(s); first at row 2 (0.5): '0.005' -> 'nan'"

    def test_bytes_that_differ_elsewhere_are_not_called_same(self, tmp_path, capsys):
        crlf = SERIES.replace("\n", "\r\n")
        code, lines = compare(tmp_path, {"e/series.csv": SERIES}, {"e/series.csv": crlf}, capsys)
        assert code == 1
        assert lines == ["e/series.csv: differs", "  bytes differ outside the # lines and the cells"]

    def test_empty_trees_are_not_the_same(self, tmp_path, capsys):
        code, lines = compare(tmp_path, {}, {}, capsys)
        assert code == 1 and lines == ["no files in either tree"]
