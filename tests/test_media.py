import hashlib
import json
import re

import numpy as np
import pytest

from abrsim import Manifest, ManifestError, load_manifest, synthesize_manifest, write_manifest
from abrsim.cli import main

PAPER_LADDER = (370.0, 750.0, 1500.0, 3000.0, 5800.0, 12000.0, 17000.0, 20000.0)


def test_paper_ladder_accepted():
    man = synthesize_manifest(600, PAPER_LADDER, 2.0, vbr_jitter=0.0, seed=0)
    assert man.num_segments == 600
    assert man.num_levels == 8
    assert man.segment_duration_s == 2.0
    assert man.duration_s == 1200.0


def test_small_explicit_manifest():
    man = Manifest(2.0, (1000, 3000), [[800, 3100], [790, 2900], [810, 3050]])
    assert man.num_segments == 3
    assert man.num_levels == 2
    assert man.sizes_row(2) == (790.0, 2900.0)


def test_non_increasing_ladder_rejected():
    with pytest.raises(ManifestError, match="strictly increasing"):
        Manifest(2.0, (1000, 1000), [[800, 900]])


def test_single_level_rejected():
    with pytest.raises(ManifestError, match="two quality levels"):
        Manifest(2.0, (1000,), [[800]])


def test_ragged_matrix_rejected():
    with pytest.raises(ManifestError, match="columns"):
        Manifest(2.0, (1000, 3000), [[800, 900, 1000]])


def test_non_positive_size_names_position():
    with pytest.raises(ManifestError, match="segment 2, level 1"):
        Manifest(2.0, (1000, 3000), [[800, 3000], [0, 3000]])
    for bad in (np.inf, np.nan):
        with pytest.raises(ManifestError, match="segment_sizes_kbit: segment 1, level 2"):
            Manifest(2.0, (1000, 3000), [[800, bad], [800, 3000]])


def test_non_finite_ladder_and_duration_name_the_field():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ManifestError, match="bitrates_kbps: level 2"):
            Manifest(2.0, (1000, bad, 5000), [[800, 3000, 9000]])
        with pytest.raises(ManifestError, match="segment_duration_s"):
            Manifest(bad, (1000, 3000), [[800, 3000]])
    with pytest.raises(ManifestError, match="bitrates_kbps: level 1"):
        Manifest(2.0, (0, 3000), [[800, 3000]])


def test_decreasing_row_names_position():
    with pytest.raises(ManifestError, match="segment 1"):
        Manifest(2.0, (1000, 3000), [[3000, 800], [800, 3000]])


@pytest.mark.parametrize("man", [
    synthesize_manifest(40, PAPER_LADDER, 2.0, vbr_jitter=0.3, seed=5),
    Manifest(2.0, (1000, 3000), [[800, 3100], [790, 2900.5], [810, 3050]]),
], ids=["synthesized", "ints"])
def test_each_row_is_a_tuple_of_floats_with_the_bits_of_the_size_matrix(man):
    assert len(man.rows) == man.num_segments
    for t in range(1, man.num_segments + 1):
        row = man.rows[t - 1]
        assert type(row) is tuple and {type(size) for size in row} == {float}
        assert np.array(row).tobytes() == man.segment_sizes_kbit[t - 1].tobytes()
        assert man.sizes_row(t) is row


def test_row_access_bounds():
    man = Manifest(2.0, (1000, 3000), [[800, 3000]])
    with pytest.raises(IndexError):
        man.sizes_row(0)
    with pytest.raises(IndexError):
        man.sizes_row(2)


def test_synthesize_zero_jitter_is_exact_cbr():
    man = synthesize_manifest(5, (1000, 2000), 2.0, vbr_jitter=0.0, seed=3)
    assert np.array_equal(man.segment_sizes_kbit, np.tile([2000.0, 4000.0], (5, 1)))


def test_synthesize_respects_jitter_band():
    jitter = 0.1
    man = synthesize_manifest(600, PAPER_LADDER, 2.0, vbr_jitter=jitter, seed=11)
    assert man.segment_sizes_kbit.shape == (600, 8)
    nominal = np.asarray(PAPER_LADDER) * 2.0
    ratio = man.segment_sizes_kbit / nominal
    # monotone repair clamps upward but never leaves the band of any level
    assert np.all(ratio >= 1.0 - jitter - 1e-12)
    assert np.all(ratio <= 1.0 + jitter + 1e-12)
    assert np.all(np.diff(man.segment_sizes_kbit, axis=1) >= 0)


def test_synthesize_mean_tracks_nominal():
    jitter = 0.2
    man = synthesize_manifest(4000, (1000, 4000), 2.0, vbr_jitter=jitter, seed=5)
    nominal = np.array([2000.0, 8000.0])
    mean_ratio = man.segment_sizes_kbit.mean(axis=0) / nominal
    assert np.all(np.abs(mean_ratio - 1.0) < jitter / 2)


def test_synthesize_deterministic():
    a = synthesize_manifest(50, PAPER_LADDER, 2.0, vbr_jitter=0.3, seed=42)
    b = synthesize_manifest(50, PAPER_LADDER, 2.0, vbr_jitter=0.3, seed=42)
    assert np.array_equal(a.segment_sizes_kbit, b.segment_sizes_kbit)


def test_synthesize_invalid_jitter():
    with pytest.raises(ValueError):
        synthesize_manifest(5, (1000, 2000), 2.0, vbr_jitter=0.5)
    with pytest.raises(ValueError):
        synthesize_manifest(5, (1000, 2000), 2.0, vbr_jitter=-0.1)


@pytest.mark.parametrize("args, kwargs, expected", [
    # a float count once ended in numpy's TypeError
    ((2.5, (1000.0, 2000.0), 2.0), {}, "num_segments must be an integer >= 1, got 2.5"),
    # False once built a CBR manifest
    ((5, (1000.0, 2000.0), 2.0), {"vbr_jitter": False}, "vbr_jitter must be in [0, 0.5), got False"),
    ((3, ["370", "750"], 2.0), {}, "bitrates_kbps must be a list of numbers: level 1 is '370'"),
    ((3, (1000.0, 2000.0), True), {}, "segment_duration_s must be a number, got True"),
], ids=["count-float", "jitter-bool", "rates-strings", "duration-bool"])
def test_synthesize_rejects_an_argument_by_its_rule(args, kwargs, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        synthesize_manifest(*args, **kwargs)


def test_zero_segments_rejected():
    # such a manifest once loaded, and run or compare then failed scoring it
    # with "window k=1 outside 1..0", a message that named neither file nor field
    for sizes in ([], np.zeros((0, 2))):
        with pytest.raises(ManifestError, match="segment_sizes_kbit holds no segments"):
            Manifest(2.0, (1000, 2000), sizes)
    # synthesize_manifest names its count, which gen manifest --segments sets;
    # it once left the empty matrix to Manifest
    with pytest.raises(ValueError, match=r"^num_segments must be an integer >= 1, got 0$"):
        synthesize_manifest(0, (1000, 2000), 2.0)


def test_roundtrip_file(tmp_path):
    man = synthesize_manifest(20, (1000, 2000, 4000), 2.0, vbr_jitter=0.15, seed=9)
    path = tmp_path / "m.json"
    write_manifest(man, path)
    back = load_manifest(path)
    assert back.bitrates_kbps == man.bitrates_kbps
    assert back.segment_duration_s == man.segment_duration_s
    assert np.array_equal(back.segment_sizes_kbit, man.segment_sizes_kbit)


def test_written_manifest_is_the_json_dump_of_its_fields(tmp_path):
    man = synthesize_manifest(300, PAPER_LADDER, 2.0, vbr_jitter=0.3, seed=41)
    path = tmp_path / "m.json"
    write_manifest(man, path)
    doc = {
        "segment_duration_s": 2.0,
        "bitrates_kbps": list(PAPER_LADDER),
        "segment_sizes_kbit": man.segment_sizes_kbit.tolist(),
    }
    with open(tmp_path / "dump.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def test_generated_manifest_has_pinned_bytes(tmp_path):
    # numpy's Generator streams and the float reprs are the same on every
    # platform, so the file is too
    path = tmp_path / "m.json"
    assert main(["gen", "manifest", "--segments", "40", "--jitter", "0.2", "--seed", "5",
                 "--out", str(path)]) == 0
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "e6d7858187fecec0e59b8bc755c58751524e6c62ddc4f9302c2afbf8a6a20926")


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(path)
    path.write_bytes(b'{"segment_duration_s": 2.0, "bitrates_kbps": [1000, \xff]}')
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"cannot read manifest {path}: 'utf-8' codec can't decode byte 0xff ")


def test_load_rejects_non_finite_values_by_file_and_field(tmp_path):
    # json reads NaN and Infinity tokens, so a manifest file can carry them
    good = {"segment_duration_s": 2.0, "bitrates_kbps": [1000, 3000],
            "segment_sizes_kbit": [[2000, 6000]]}
    cases = (("bitrates_kbps", [1000, float("nan")], "bitrates_kbps: level 2"),
             ("segment_duration_s", float("inf"), "segment_duration_s"),
             ("segment_sizes_kbit", [[2000, float("inf")]], "segment_sizes_kbit: segment 1, level 2"),
             # values of the wrong shape or type are named by field too
             ("segment_sizes_kbit", [[2000, 6000], [2000]], "segment_sizes_kbit must be a matrix of numbers"),
             ("segment_sizes_kbit", [[2000, "abc"]], "segment_sizes_kbit must be a matrix of numbers"),
             ("segment_sizes_kbit", [], "segment_sizes_kbit holds no segments"),
             ("segment_duration_s", "abc", "segment_duration_s must be a number"),
             ("bitrates_kbps", [1000, "abc"], "bitrates_kbps must be a list of numbers"))
    for field, value, message in cases:
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ManifestError, match=message) as err:
            load_manifest(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("field, value, expected", [
    ("segment_sizes_kbit", [[2000, 6000], [2000, "700.5"]],
     "segment_sizes_kbit must be a matrix of numbers: segment 2, level 2 is '700.5'"),
    ("segment_sizes_kbit", [[2000, 6000], [True, 6000]],
     "segment_sizes_kbit must be a matrix of numbers: segment 2, level 1 is True"),
    ("segment_sizes_kbit", [[None, 6000]],
     "segment_sizes_kbit must be a matrix of numbers: segment 1, level 1 is None"),
    ("bitrates_kbps", ["370", 3000], "bitrates_kbps must be a list of numbers: level 1 is '370'"),
    ("bitrates_kbps", [1000, True], "bitrates_kbps must be a list of numbers: level 2 is True"),
    ("segment_duration_s", "2.0", "segment_duration_s must be a number, got '2.0'"),
    ("segment_duration_s", False, "segment_duration_s must be a number, got False"),
    # a JSON integer past the float range once raised an OverflowError
    ("segment_sizes_kbit", [[2000, 10**400], [2000, 6000]],
     "segment_sizes_kbit must be a matrix of numbers: int too large to convert to float"),
    ("bitrates_kbps", [1000, 10**400], "bitrates_kbps must be a list of numbers: int too large to convert to float"),
    # in memory, each of these was once read as a number: True as 1 s
    ("segment_duration_s", True, "segment_duration_s must be a number, got True"),
    ("bitrates_kbps", ["370", "750"], "bitrates_kbps must be a list of numbers: level 1 is '370'"),
    ("segment_sizes_kbit", [["1", "2"], [2000, 6000]],
     "segment_sizes_kbit must be a matrix of numbers: segment 1, level 1 is '1'"),
    ("segment_sizes_kbit", np.ones((2, 2), dtype=bool),
     "segment_sizes_kbit must be a matrix of numbers: segment 1, level 1 is True"),
    # a string was once read as its characters, and an object as its keys
    ("bitrates_kbps", "12", "bitrates_kbps must be a list of numbers, got '12'"),
    ("bitrates_kbps", {"1000": 1, "3000": 2},
     "bitrates_kbps must be a list of numbers, got {'1000': 1, '3000': 2}"),
], ids=["size-string", "size-bool", "size-null", "rate-string", "rate-bool", "duration-string",
        "duration-bool", "size-past-float-range", "rate-past-float-range", "duration-true", "rates-strings",
        "sizes-strings", "size-bool-array", "ladder-string", "ladder-object"])
def test_load_rejects_a_number_that_is_not_a_json_number(tmp_path, field, value, expected):
    # numpy once read the size "700.5" as 700.5 and true as 1.0, and the
    # ladder and the duration were converted with float() the same way; a
    # manifest built in memory obeys the rule as a file does
    good = {"segment_duration_s": 2.0, "bitrates_kbps": [1000, 3000],
            "segment_sizes_kbit": [[2000, 6000], [2000, 6000]]}
    with pytest.raises(ManifestError) as err:
        Manifest(**{**good, field: value})
    assert str(err.value) == expected
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**good, field: value.tolist() if isinstance(value, np.ndarray) else value}))
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert str(err.value) == f"manifest {path}: {expected}"


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"bitrates_kbps": [1000, 2000]}))
    with pytest.raises(ManifestError, match="field"):
        load_manifest(path)
