"""tools/compare_revisions.py: the CSV comparison, on two synthetic output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_revisions.py"
spec = importlib.util.spec_from_file_location("compare_revisions", TOOL)
compare_revisions = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_revisions)


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_compare_dirs_reports_bytes_and_largest_relative_difference(tmp_path):
    a = _write(tmp_path / "a", {
        "same.csv": "x,y\n1,0.5\n",
        "kind/last_digit.csv": "x,y\n1,0.5\n2,-4.0\n",
        "kind/zero.csv": "x\n0.0\n",
        "text.csv": "label,v\nspherical,1.0\n",
        "shape.csv": "x\n1\n",
        "only_a.csv": "x\n1\n",
        "notes.txt": "not a csv",
    })
    b = _write(tmp_path / "b", {
        "same.csv": "x,y\n1,0.5\n",
        "kind/last_digit.csv": "x,y\n1,0.5\n2,-4.000000000000001\n",
        "kind/zero.csv": "x\n-0.0\n",
        "text.csv": "label,v\nplanar,1.0\n",
        "shape.csv": "x\n1\n2\n",
        "sub/only_b.csv": "x\n1\n",
    })
    report = {name: (status, rel) for name, status, rel in compare_revisions.compare_dirs(a, b)}
    assert list(report) == sorted(report)
    assert report["same.csv"] == ("equal", 0.0)
    status, rel = report["kind/last_digit.csv"]
    assert status == "differs" and rel == pytest.approx(abs(-4.0 - -4.000000000000001) / 4.000000000000001)
    assert report["kind/zero.csv"] == ("differs", 0.0)  # -0.0 and 0.0 differ in bytes, not in value
    assert report["text.csv"] == ("differs", None)
    assert report["shape.csv"] == ("differs", None)
    assert report["only_a.csv"] == ("only in A", None)
    assert report["sub/only_b.csv"] == ("only in B", None)
    assert "notes.txt" not in report


def test_compare_csv_reads_non_finite_numbers(tmp_path):
    a = _write(tmp_path / "a", {"v.csv": "v\ninf\n-inf\n1.0\n"})
    b = _write(tmp_path / "b", {"v.csv": "v\ninf\n-inf\n1.5\n"})
    assert compare_revisions.compare_csv(a / "v.csv", b / "v.csv") == (False, pytest.approx(0.5 / 1.5))
    c = _write(tmp_path / "c", {"v.csv": "v\ninf\n1e308\n1.0\n"})
    assert compare_revisions.compare_csv(a / "v.csv", c / "v.csv") == (False, float("inf"))
    d = _write(tmp_path / "d", {"v.csv": "v\nnan\n1.0\n"})
    e = _write(tmp_path / "e", {"v.csv": "v\nnan\n1.5\n"})
    assert compare_revisions.compare_csv(d / "v.csv", e / "v.csv") == (False, pytest.approx(0.5 / 1.5))
    f = _write(tmp_path / "f", {"v.csv": "v\n1.0\n1.0\n"})
    assert compare_revisions.compare_csv(d / "v.csv", f / "v.csv") == (False, float("inf"))
    assert compare_revisions.compare_csv(f / "v.csv", d / "v.csv") == (False, float("inf"))


def test_compare_dirs_reads_manifests_without_the_wall_clock(tmp_path):
    def manifest(sweep, wall_clock_s):
        return json.dumps({"experiment": "temporal_acf", "sweep": sweep, "wall_clock_s": wall_clock_s})

    a = _write(tmp_path / "a", {
        "kind/manifest.json": manifest({"points": 3}, 0.25),
        "other/manifest.json": manifest({"points": 3}, 0.25),
        "only_a/manifest.json": manifest({}, 0.1),
        "kind/off-axis.json": "{}",
    })
    b = _write(tmp_path / "b", {
        "kind/manifest.json": manifest({"points": 3}, 1.5),
        "other/manifest.json": manifest({"points": 4}, 0.25),
    })
    report = {name: (status, rel) for name, status, rel in compare_revisions.compare_dirs(a, b)}
    assert report == {
        "kind/manifest.json": ("equal", None),
        "other/manifest.json": ("differs", None),
        "only_a/manifest.json": ("only in A", None),
    }


def test_off_axis_invocations_cover_every_sweep_flag_and_model():
    from nfmimo.cli import _FLAGS

    runs = compare_revisions.off_axis_invocations()
    names = [name for name, _ in runs]
    assert len(names) == len(set(names))
    flags = {arg for _, args in runs for arg in args if arg.startswith("--")}
    assert {flag for flag, _, _ in _FLAGS.values()} <= flags
    models = {args[args.index("--model") + 1] for _, args in runs if "--model" in args}
    assert models == set(compare_revisions.MODELS)


def test_compare_arrays_reports_each_array_of_each_file(tmp_path):
    import numpy as np

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    h = np.array([[1 + 2j, np.nan], [3.0, -0.0]])
    np.savez(tmp_path / "a" / "64_spherical.npz", same=h, last_bit=np.array([0.1, 0.2]), dtype=np.arange(3),
             shape=np.zeros(3), only_a=np.ones(1), complex=h, overflow=np.array([1.0, np.inf]))
    np.savez(tmp_path / "b" / "64_spherical.npz", same=h.copy(), last_bit=np.array([0.1, np.nextafter(0.2, 1)]),
             dtype=np.arange(3.0), shape=np.zeros(4), complex=h * np.array([[1, 1], [1.25, 1]]),
             overflow=np.array([1.0, 1e308]))
    np.savez(tmp_path / "b" / "128_planar.npz", parts=np.ones(2))
    report = {name: (status, rel) for name, status, rel in compare_revisions.compare_arrays(tmp_path / "a", tmp_path / "b")}
    assert list(report) == sorted(report)
    last_bit = np.nextafter(0.2, 1)
    assert report == {
        "128_planar.npz:parts": ("only in B", None),
        "64_spherical.npz:complex": ("differs", pytest.approx(0.75 / 3.75)),  # 3 against 3.75; NaN equal to NaN
        "64_spherical.npz:dtype": ("differs", None),  # equal values, int against float
        "64_spherical.npz:last_bit": ("differs", pytest.approx((last_bit - 0.2) / last_bit)),
        "64_spherical.npz:only_a": ("only in A", None),
        "64_spherical.npz:overflow": ("differs", float("inf")),  # infinities apart, as compare_csv
        "64_spherical.npz:same": ("equal", 0.0),  # NaN equal to NaN
        "64_spherical.npz:shape": ("differs", None),
    }


def test_array_script_saves_matrix_parts_and_combine_parts(tmp_path):
    import numpy as np

    root = TOOL.parent.parent
    assert compare_revisions.run_arrays(root, tmp_path / "a", sides=(3,), models=("spherical", "subarray:2x2")) == []
    assert compare_revisions.run_arrays(root, tmp_path / "b", sides=(3,), models=("spherical", "subarray:2x2")) == []
    report = compare_revisions.compare_arrays(tmp_path / "a", tmp_path / "b")
    assert {status for _, status, _ in report} == {"equal"}
    names = {name for name, _, _ in report}
    for stem in ("3_spherical.npz", "3_subarray_2x2.npz"):
        assert {f"{stem}:combine_parts.1", f"{stem}:combine_parts.3", f"{stem}:matrix_parts.0.2"} <= names
        assert {f"{stem}:point_phases.direct", f"{stem}:point_phases.scattered"} <= names
        with np.load(tmp_path / "a" / stem) as data:
            # one phase per point, and one per point and ray of the seed-0 field (100 rays)
            assert data["point_phases.direct"].shape == (8,) and data["point_phases.scattered"].shape == (8, 100)
            assert np.isfinite(data["point_phases.scattered"]).all()
    failures = compare_revisions.run_arrays(root, tmp_path / "c", sides=(3,), models=("subarray:9x9",))
    assert len(failures) == 1 and "exceeds" in failures[0]
