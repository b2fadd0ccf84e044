"""Dataset IO and synthetic generator tests."""

import numpy as np
import pytest

from setfuse.data import (
    MANIFEST_NAME,
    generate_synthetic,
    load_dataset,
    read_set_file,
    save_dataset,
)
from setfuse.errors import (
    BadSpec,
    DimensionMismatch,
    IoError,
    ParseError,
    TooFewSamples,
)

from helpers import random_image_set


class TestRoundTrip:
    def test_save_then_load_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(130)
        sets = [
            random_image_set(rng, d=5, n=7, label=f"c{i % 2}", set_id=f"s{i}")
            for i in range(4)
        ]
        manifest = save_dataset(sets, tmp_path / "ds")
        assert manifest.name == MANIFEST_NAME
        loaded = load_dataset(manifest)
        assert len(loaded) == 4
        for orig, back in zip(sets, loaded):
            assert back.set_id == orig.set_id
            assert back.label == orig.label
            assert np.array_equal(back.features, orig.features)

    def test_extreme_values_survive_text(self, tmp_path):
        feats = np.array(
            [[1e-300, 1e300, -1.2345678901234567], [np.pi, -0.0, 7.0]]
        )
        from setfuse.descriptors import ImageSet

        s = ImageSet(features=feats, label="x", set_id="edge")
        manifest = save_dataset([s], tmp_path)
        back = load_dataset(manifest)[0]
        assert np.array_equal(back.features, feats)


class TestSaveWriteFailure:
    def test_write_failure_raises_io_error(self, tmp_path):
        rng = np.random.default_rng(138)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        with pytest.raises(IoError, match="cannot write dataset"):
            save_dataset([random_image_set(rng)], blocker / "ds")


class TestSaveRejectsUnsafeSetIds:
    def test_duplicate_set_ids_write_nothing(self, tmp_path):
        rng = np.random.default_rng(136)
        sets = [random_image_set(rng, label=f"c{i}", set_id="dup") for i in range(2)]
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(BadSpec, match="repeats"):
            save_dataset(sets, out)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("set_id", ["../escape", "a/b", "a\\b", "", ".", ".."])
    def test_non_stem_set_ids_write_nothing(self, tmp_path, set_id):
        rng = np.random.default_rng(137)
        sets = [random_image_set(rng, set_id="ok"), random_image_set(rng, set_id=set_id)]
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(BadSpec, match="plain file-name stem"):
            save_dataset(sets, out)
        assert list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


class TestSaveRejectsWhatLoadRefuses:
    """``save_dataset`` takes what ``load_dataset`` returns, a non-empty list
    or tuple of ``ImageSet`` of one dimension, and writes nothing otherwise."""

    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda rng: [], BadSpec, "no image sets"),
            (lambda rng: iter([random_image_set(rng)]), BadSpec, "got list_iterator"),
            (lambda rng: ["x"], BadSpec, "item 0 is a str"),
            (
                lambda rng: [random_image_set(rng, d=6), random_image_set(rng, d=8, set_id="s1")],
                DimensionMismatch,
                "'s1'",
            ),
        ],
        ids=["empty", "iterator", "list-of-str", "mixed-dims"],
    )
    def test_write_nothing(self, tmp_path, make, error, match):
        out = tmp_path / "ds"
        with pytest.raises(error, match=match):
            save_dataset(make(np.random.default_rng(139)), out)
        assert list(tmp_path.iterdir()) == []


class TestManifestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IoError):
            load_dataset(tmp_path / "nope.csv")

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("")
        with pytest.raises(ParseError, match=r":1:"):
            load_dataset(p)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("id,lbl,file\na,b,c.csv\n")
        with pytest.raises(ParseError, match=r":1:"):
            load_dataset(p)

    def test_wrong_field_count_cites_line(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\na,b,c.csv\nbroken,row\n")
        with pytest.raises(ParseError, match=r":3:"):
            load_dataset(p)

    @pytest.mark.parametrize(
        "field", ["x" * 200_000, '"' + "x" * 200_000 + '"'], ids=["bare", "quoted"]
    )
    def test_field_over_the_csv_limit_cites_line(self, tmp_path, field):
        p = tmp_path / MANIFEST_NAME
        p.write_text(f"set_id,label,path\na,b,c.csv\nd,e,{field}\n")
        with pytest.raises(ParseError, match=r"manifest\.csv:3: field larger than field limit"):
            load_dataset(p)

    def test_header_only_manifest(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\n")
        with pytest.raises(ParseError, match="no sets"):
            load_dataset(p)

    def test_non_utf8_manifest_raises_parse_error(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_bytes(b"set_id,label,path\na,\xff,a.csv\n")
        with pytest.raises(ParseError, match=r"manifest\.csv: not UTF-8"):
            load_dataset(p)

    def test_blank_lines_skipped(self, tmp_path):
        rng = np.random.default_rng(131)
        manifest = save_dataset([random_image_set(rng)], tmp_path)
        text = manifest.read_text()
        manifest.write_text(text + "\n\n")
        assert len(load_dataset(manifest)) == 1


class TestSetFileErrors:
    def test_bad_token_cites_location(self, tmp_path):
        rng = np.random.default_rng(132)
        manifest = save_dataset([random_image_set(rng, set_id="bad")], tmp_path)
        target = tmp_path / "bad.csv"
        lines = target.read_text().splitlines()
        # Python's float() reads the last two (as 10.0 and 12.0); no CSV writer emits them
        for token in ("oops", "1_0", "\u0661\u0662"):
            cells = lines[1].split(",")
            cells[2] = token
            target.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
            with pytest.raises(ParseError, match=r"bad\.csv:2: column 3"):
                load_dataset(manifest)

    def test_decimal_and_non_finite_spellings_are_read(self, tmp_path):
        tokens = ["1.5", " -2e3 ", "+.5", "5.", "1E+2", "nan", "-Infinity", "INF"]
        target = tmp_path / "ok.csv"
        target.write_text(",".join(tokens) + "\n" + ",".join(["0"] * len(tokens)) + "\n")
        np.testing.assert_array_equal(read_set_file(target)[0], [float(t) for t in tokens])

    def test_ragged_rows_rejected(self, tmp_path):
        rng = np.random.default_rng(133)
        manifest = save_dataset([random_image_set(rng, set_id="rag")], tmp_path)
        target = tmp_path / "rag.csv"
        lines = target.read_text().splitlines()
        lines[2] = lines[2] + ",0.5"
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"rag\.csv:3"):
            load_dataset(manifest)

    def test_non_utf8_set_file_raises_parse_error(self, tmp_path):
        target = tmp_path / "latin.csv"
        target.write_bytes(b"1.0,2.0\n3.0,\xff4.0\n")
        with pytest.raises(ParseError, match=r"latin\.csv: not UTF-8"):
            read_set_file(target)

    def test_missing_set_file(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\na,b,ghost.csv\n")
        with pytest.raises(IoError, match="ghost"):
            load_dataset(p)

    def test_empty_set_file(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\na,b,empty.csv\n")
        (tmp_path / "empty.csv").write_text("\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_dataset(p)

    def test_single_sample_set_rejected(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\na,b,one.csv\n")
        (tmp_path / "one.csv").write_text("1.0\n2.0\n")
        with pytest.raises(TooFewSamples):
            load_dataset(p)

    def test_dimension_mismatch_across_sets(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\na,x,a.csv\nb,y,b.csv\n")
        (tmp_path / "a.csv").write_text("1,2\n3,4\n")
        (tmp_path / "b.csv").write_text("1,2\n3,4\n5,6\n")
        with pytest.raises(DimensionMismatch, match="b.csv"):
            load_dataset(p)

    def test_dimension_mismatch_reported_before_non_finite(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("set_id,label,path\na,x,a.csv\nb,y,b.csv\n")
        (tmp_path / "a.csv").write_text("1,2\n3,4\n")
        (tmp_path / "b.csv").write_text("1,2\n3,nan\n5,6\n")
        with pytest.raises(DimensionMismatch, match="b.csv"):
            load_dataset(p)


class TestGenerateSynthetic:
    def test_shapes_labels_ids(self):
        sets = generate_synthetic(3, 4, 5, 9, 2.0, seed=1)
        assert len(sets) == 12
        assert all(s.features.shape == (5, 9) for s in sets)
        assert sets[0].label == "class0"
        assert sets[-1].label == "class2"
        assert sets[5].set_id == "class1_set1"
        labels = sorted({s.label for s in sets})
        assert labels == ["class0", "class1", "class2"]

    def test_deterministic_in_seed(self):
        a = generate_synthetic(2, 3, 4, 8, 3.0, seed=7)
        b = generate_synthetic(2, 3, 4, 8, 3.0, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
        c = generate_synthetic(2, 3, 4, 8, 3.0, seed=8)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_zero_separation_centers_collapse(self):
        # separation 0 puts every class center at the origin; set means stay
        # within the 0.5-sigma jitter of it
        sets = generate_synthetic(4, 2, 6, 400, 0.0, seed=3)
        means = np.array([s.features.mean(axis=1) for s in sets])
        assert np.max(np.abs(means)) < 2.5

    def test_separation_scales_center_spread(self):
        near = generate_synthetic(6, 1, 8, 500, 0.5, seed=9)
        far = generate_synthetic(6, 1, 8, 500, 20.0, seed=9)
        spread_near = np.std([s.features.mean(axis=1) for s in near])
        spread_far = np.std([s.features.mean(axis=1) for s in far])
        assert spread_far > 10 * spread_near

    def test_rms_center_distance_tracks_separation(self):
        # centers ~ N(0, sep^2/2 I) give E||c1 - c2||^2 = sep^2 * dim
        sep, dim = 4.0, 10
        sets = generate_synthetic(200, 1, dim, 2, sep, seed=13)
        means = np.array([s.features.mean(axis=1) for s in sets])
        # uses set means as center proxies; jitter and sample noise are small
        # against sep * sqrt(dim) ~ 12.6
        d2 = ((means[:, None, :] - means[None, :, :]) ** 2).sum(-1)
        rms = np.sqrt(d2[np.triu_indices(200, 1)].mean())
        assert abs(rms - sep * np.sqrt(dim)) / (sep * np.sqrt(dim)) < 0.15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(classes=0, sets_per_class=1, dim=4, samples=5, separation=1.0),
            dict(classes=1, sets_per_class=0, dim=4, samples=5, separation=1.0),
            dict(classes=1, sets_per_class=1, dim=1, samples=5, separation=1.0),
            dict(classes=1, sets_per_class=1, dim=4, samples=1, separation=1.0),
            dict(classes=1, sets_per_class=1, dim=4, samples=5, separation=-0.5),
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(BadSpec):
            generate_synthetic(seed=0, **kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(BadSpec, match="seed"):
            generate_synthetic(
                classes=2, sets_per_class=1, dim=4, samples=5, separation=1.0, seed=-1
            )

    @pytest.mark.parametrize("field", ["classes", "sets_per_class", "dim", "samples", "seed"])
    @pytest.mark.parametrize("value", [3.0, 2.5, True], ids=["float", "fraction", "bool"])
    def test_counts_reject_non_integers(self, field, value):
        kwargs = dict(classes=2, sets_per_class=1, dim=4, samples=5, separation=1.0, seed=0)
        kwargs[field] = value
        with pytest.raises(BadSpec, match=field):
            generate_synthetic(**kwargs)

    @pytest.mark.parametrize("separation", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(BadSpec, match="finite"):
            generate_synthetic(
                classes=2, sets_per_class=1, dim=4, samples=5, separation=separation, seed=0
            )

    @pytest.mark.parametrize("separation", ["1", True, None], ids=["str", "bool", "none"])
    def test_separation_must_be_a_number(self, separation):
        with pytest.raises(BadSpec, match="separation"):
            generate_synthetic(
                classes=2, sets_per_class=1, dim=4, samples=5, separation=separation, seed=0
            )

    def test_integer_separation_accepted(self):
        kwargs = dict(classes=2, sets_per_class=1, dim=4, samples=5, seed=0)
        as_int = generate_synthetic(separation=2, **kwargs)
        as_float = generate_synthetic(separation=2.0, **kwargs)
        assert all(np.array_equal(a.features, b.features) for a, b in zip(as_int, as_float))
