import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiotox.dataset import (
    ActivityRecord,
    Compound,
    DescriptorTable,
    PotencyClass,
    assign_class,
    binarize,
    load_key_overrides,
    parse_activity_csv,
    parse_compounds_csv,
    parse_descriptor_csv,
    pic50_from_potency,
    resolve_duplicates,
    stratified_kfold,
)
from cardiotox.errors import InvalidInputError, ParseError

from conftest import labeled


def rec(key, pic50, kind="IC50", cell=None, ref=None, smiles="C"):
    # potency expressed in molar so the record round-trips to the given pic50
    return ActivityRecord(key, smiles, 10.0 ** (-pic50), kind, "M", cell, ref)


class TestPic50:
    def test_one_micromolar_is_exactly_six(self):
        assert pic50_from_potency(1.0, "uM") == 6.0
        assert pic50_from_potency(10.0, "uM") == 5.0
        assert pic50_from_potency(1.0, "M") == 0.0
        assert pic50_from_potency(1.0, "nM") == 9.0
        assert pic50_from_potency(1.0, "mM") == 3.0

    def test_thirty_micromolar(self):
        import mpmath

        mpmath.mp.dps = 40
        oracle = float(-mpmath.log10(mpmath.mpf("3e-5")))
        # frozen value from the same oracle, kept for at-a-glance reference
        assert oracle == pytest.approx(4.522878745280337, abs=1e-15)
        assert pic50_from_potency(30.0, "uM") == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(InvalidInputError):
            pic50_from_potency(bad, "uM")

    def test_rejects_unknown_unit(self):
        with pytest.raises(InvalidInputError):
            pic50_from_potency(1.0, "pM")


class TestAssignClass:
    @pytest.mark.parametrize(
        "pic50,expected",
        [
            (6.0, PotencyClass.STRONG),
            (7.3, PotencyClass.STRONG),
            (5.999, PotencyClass.MODERATE),
            (5.0, PotencyClass.MODERATE),
            (4.999, PotencyClass.WEAK),
            (4.5, PotencyClass.WEAK),
            (4.499, PotencyClass.NON),
            (-2.0, PotencyClass.NON),
        ],
    )
    def test_boundaries(self, pic50, expected):
        assert assign_class(pic50) is expected

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            assign_class(math.nan)

    def test_composition_with_unit_conversion(self):
        assert assign_class(pic50_from_potency(1.0, "uM")) is PotencyClass.STRONG
        assert assign_class(pic50_from_potency(10.0, "uM")) is PotencyClass.MODERATE
        assert assign_class(pic50_from_potency(30.0, "uM")) is PotencyClass.WEAK

    def test_total_order(self):
        assert PotencyClass.STRONG > PotencyClass.MODERATE > PotencyClass.WEAK > PotencyClass.NON


class TestResolveDuplicates:
    def test_mean_merge(self):
        compounds, report = resolve_duplicates([rec("a", 6.0), rec("a", 6.2)])
        assert len(compounds) == 1
        assert compounds[0].pic50 == pytest.approx(6.1, abs=1e-12)
        assert report.entries[0].action == "merged"

    def test_wide_span_discards(self):
        compounds, report = resolve_duplicates([rec("a", 6.0), rec("a", 4.4)])
        assert compounds == []
        assert report.entries[0].action == "discarded"
        assert "span" in report.entries[0].reason

    def test_singleton_passthrough(self):
        compounds, _ = resolve_duplicates([rec("a", 5.0)])
        assert compounds[0].pic50 == pytest.approx(5.0, abs=1e-12)

    def test_latest_reference_wins(self):
        compounds, report = resolve_duplicates(
            [rec("a", 6.0, ref=1), rec("a", 4.0, ref=3), rec("a", 5.0, ref=2)]
        )
        assert compounds[0].pic50 == pytest.approx(4.0, abs=1e-12)
        assert "latest reference" in report.entries[0].reason

    def test_tied_references_fall_back_to_mean(self):
        compounds, _ = resolve_duplicates([rec("a", 5.0, ref=2), rec("a", 5.4, ref=2)])
        assert compounds[0].pic50 == pytest.approx(5.2, abs=1e-12)

    def test_cell_preference_filters_group(self):
        compounds, _ = resolve_duplicates(
            [rec("a", 6.0, cell="HEK293"), rec("a", 4.0, cell="CHO"), rec("a", 6.4, cell="HEK293")],
            cell_preference=("HEK293", "CHO"),
        )
        assert compounds[0].pic50 == pytest.approx(6.2, abs=1e-12)

    def test_non_ic50_dropped(self):
        compounds, report = resolve_duplicates([rec("a", 5.0, kind="Ki")])
        assert compounds == []
        assert "no IC50" in report.entries[0].reason

    def test_ki_within_group_excluded_from_merge(self):
        compounds, _ = resolve_duplicates([rec("a", 5.0), rec("a", 9.0, kind="Ki")])
        assert compounds[0].pic50 == pytest.approx(5.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            resolve_duplicates([])

    def test_key_overrides_merge_groups(self):
        compounds, _ = resolve_duplicates(
            [rec("cid1", 6.0), rec("alias", 6.2)], key_overrides={"alias": "cid1"}
        )
        assert len(compounds) == 1
        assert compounds[0].pic50 == pytest.approx(6.1, abs=1e-12)

    def test_idempotent_on_own_output(self, rng):
        records = []
        for i in range(40):
            key = f"k{i % 15}"
            records.append(rec(key, float(rng.uniform(3.5, 8.0)), ref=int(rng.integers(0, 3)) or None))
        compounds, _ = resolve_duplicates(records)
        again, report = resolve_duplicates(
            [ActivityRecord(c.compound_key, c.smiles, 10.0 ** (-c.pic50), "IC50", "M") for c in compounds]
        )
        assert [c.compound_key for c in again] == [c.compound_key for c in compounds]
        for before, after in zip(compounds, again):
            assert after.pic50 == pytest.approx(before.pic50, abs=1e-9)
        assert all(e.action == "kept" for e in report.entries)

    def test_report_line_format(self):
        _, report = resolve_duplicates([rec("a", 6.0), rec("a", 4.4), rec("b", 5.0)])
        lines = report.to_text().splitlines()
        assert len(lines) == 2
        key, action, reason = lines[0].split("\t")
        assert (key, action) == ("a", "discarded") and reason


class TestBinarize:
    def test_simple_threshold(self):
        comps = [Compound("a", "C", 6.1), Compound("b", "C", 5.2), Compound("c", "C", 4.0)]
        out = binarize(comps, 5.0)
        assert list(out.labels) == [0, 0, 1]
        assert out.class_names == ("blocker", "non-blocker")
        assert out.class_counts() == (2, 1)

    def test_boundary_is_blocker(self):
        out = binarize([Compound("a", "C", 5.0)], 5.0)
        assert out.labels[0] == 0

    def test_agrees_with_class_ranks(self, rng):
        pic50s = rng.uniform(3.0, 8.0, size=300)
        comps = [Compound(f"k{i}", "C", p) for i, p in enumerate(pic50s)]
        for threshold, min_class in ((6.0, PotencyClass.STRONG), (5.0, PotencyClass.MODERATE), (4.5, PotencyClass.WEAK)):
            out = binarize(comps, threshold)
            for label, p in zip(out.labels, pic50s):
                assert (label == 0) == (assign_class(p) >= min_class)


class TestStratifiedKfold:
    def test_two_classes_of_ten_k10(self):
        dataset = labeled(np.empty((20, 0)), np.repeat([0, 1], 10))
        plan = stratified_kfold(dataset, 10, seed=2)
        for fold in plan.folds:
            counts = np.bincount(dataset.labels[fold], minlength=2)
            assert list(counts) == [1, 1]
        assert not plan.warnings

    def test_partition_and_balance_property(self, rng):
        for trial in range(25):
            n_classes = int(rng.integers(2, 5))
            sizes = rng.integers(3, 40, size=n_classes)
            labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
            rng.shuffle(labels)
            dataset = labeled(np.empty((len(labels), 0)), labels, tuple(map(str, range(n_classes))))
            k = int(rng.integers(2, 6))
            plan = stratified_kfold(dataset, k, seed=trial)
            stacked = np.concatenate(plan.folds)
            assert np.array_equal(np.sort(stacked), np.arange(len(labels)))
            for c in range(n_classes):
                per_fold = [int(np.sum(labels[f] == c)) for f in plan.folds]
                assert max(per_fold) - min(per_fold) <= 1

    def test_8380_rows_fold_sizes(self):
        labels = np.array([0] * 1596 + [1] * 6784)
        dataset = labeled(np.empty((8380, 0)), labels, ("blk", "nblk"))
        plan = stratified_kfold(dataset, 10, seed=0)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes[0] >= 837 and sizes[-1] <= 839
        assert sum(sizes) == 8380

    def test_k1_rejected(self):
        dataset = labeled(np.empty((4, 0)), np.repeat([0, 1], 2))
        with pytest.raises(InvalidInputError):
            stratified_kfold(dataset, 1, seed=0)

    def test_small_class_warns_but_partitions(self):
        dataset = labeled(np.empty((12, 0)), np.array([0] * 10 + [1] * 2))
        plan = stratified_kfold(dataset, 5, seed=0)
        assert plan.warnings and "fewer than k" in plan.warnings[0]
        assert np.array_equal(np.sort(np.concatenate(plan.folds)), np.arange(12))

    def test_deterministic(self):
        dataset = labeled(np.empty((30, 0)), np.repeat([0, 1, 2], 10))
        a = stratified_kfold(dataset, 3, seed=4)
        b = stratified_kfold(dataset, 3, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))


_MISSING_TOKENS = {"", "nan", "infinity", "-infinity", "inf", "-inf"}


def reference_parse_values(text):
    """Descriptor values cell by cell: (row keys, values) or the ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    feature_names = [h.strip() for h in header[1:]]
    row_keys, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, found {len(row)}", line=lineno)
        row_keys.append(row[0].strip())
        parsed = []
        for name, cell in zip(feature_names, row[1:]):
            token = cell.strip()
            if token.lower() in _MISSING_TOKENS:
                parsed.append(math.nan)
                continue
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"cell {token!r} in feature {name!r} is not a real number", line=lineno
                ) from None
            parsed.append(value if math.isfinite(value) else math.nan)
        rows.append(parsed)
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(feature_names)))
    return row_keys, values


EDGE_TOKENS = [
    "", " ", "\t", "1.5", " -2 ", "NaN", "nan", "-nan", "+NaN", "Infinity", "-Infinity", "INF",
    "-inf", "1e999", "-1e999", "1e-400", "1_0", "\u0661", "\u00a01\u2003", "\x1c3\x1f", "0x1p3",
    "1,5", "--1", "abc", "nan(1)", "infinit", "1e", ".", "-0", "0.1",
]


@st.composite
def descriptor_texts(draw):
    """Small descriptor CSVs whose cells mix edge tokens, reals and junk."""
    n_features = draw(st.integers(1, 4))
    cell = st.one_of(
        st.sampled_from(EDGE_TOKENS),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.text(alphabet="0123456789.eE+-_ naif", max_size=6),
    )
    lines = ["Name," + ",".join(f"f{j}" for j in range(n_features))]
    for r in range(draw(st.integers(0, 5))):
        width = n_features if draw(st.integers(0, 9)) else draw(st.integers(0, n_features + 1))
        cells = draw(st.lists(cell, min_size=width, max_size=width))
        lines.append(",".join([f"c{r}", *[f'"{c}"' if "," in c else c for c in cells]]))
    return "\n".join(lines) + "\n"


class TestParseDescriptorCsv:
    @settings(max_examples=300, deadline=None)
    @given(descriptor_texts())
    def test_matches_per_cell_reference(self, text):
        try:
            expected = reference_parse_values(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_descriptor_csv(io.StringIO(text))
            assert str(got.value) == str(exc) and got.value.line == exc.line
            return
        table = parse_descriptor_csv(io.StringIO(text))
        assert table.row_keys == expected[0]
        assert table.values.tobytes() == expected[1].tobytes()

    def test_missing_cell_tokens(self):
        table = parse_descriptor_csv(io.StringIO("Name,f1,f2\nc1,1.5,\nc2,NaN,2.0\n"))
        assert table.row_keys == ["c1", "c2"]
        assert np.isnan(table.values[0, 1]) and np.isnan(table.values[1, 0])
        assert table.values[0, 0] == 1.5

    def test_infinity_tokens_and_overflow(self):
        table = parse_descriptor_csv(io.StringIO("Name,f1,f2\nc1,Infinity,-Infinity\nc2,1e999,3\n"))
        assert np.isnan(table.values[0]).all()
        assert np.isnan(table.values[1, 0])

    def test_header_only(self):
        table = parse_descriptor_csv(io.StringIO("Name,f1,f2\n"))
        assert table.n_rows == 0 and table.feature_names == ["f1", "f2"]

    def test_non_numeric_cell_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_descriptor_csv(io.StringIO("Name,f1\nc1,1\nc2,abc\n"))

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_descriptor_csv(io.StringIO("Name,f1,f2\nc1,1\n"))

    def test_duplicate_feature_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_descriptor_csv(io.StringIO("Name,f1,f1\nc1,1,2\n"))

    def test_select_unknown_feature(self):
        table = parse_descriptor_csv(io.StringIO("Name,f1\nc1,1\n"))
        with pytest.raises(InvalidInputError, match="f9"):
            table.select(["f9"])


class TestParseActivityCsv:
    HEADER = "compound_key,smiles,value,kind,unit\n"

    def test_basic_row(self):
        records = parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,12,IC50,uM\n"))
        assert records[0].potency_value == 12.0
        assert records[0].unit == "uM"
        assert records[0].pic50 == pytest.approx(-math.log10(12e-6))

    def test_unsupported_unit(self):
        with pytest.raises(ParseError, match="pM"):
            parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,12,IC50,pM\n"))

    def test_ki_retained(self):
        records = parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,12,Ki,uM\n"))
        assert records[0].potency_kind == "Ki"

    def test_case_insensitive_tokens(self):
        records = parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,12,ic50,UM\nc2,CCO,1,EC50,nm\n"))
        assert records[0].unit == "uM" and records[0].potency_kind == "IC50"
        assert records[1].unit == "nM"

    def test_micro_sign_accepted(self):
        records = parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,12,IC50,µM\n"))
        assert records[0].unit == "uM"

    def test_optional_columns(self):
        stream = io.StringIO(
            "compound_key,smiles,value,kind,unit,cell_line,reference_ordinal\n"
            "c1,CCO,12,IC50,uM,HEK293,4\nc2,CCO,3,IC50,nM,,\n"
        )
        first, second = parse_activity_csv(stream)
        assert first.cell_line == "HEK293" and first.reference_ordinal == 4
        assert second.cell_line is None and second.reference_ordinal is None

    def test_missing_required_column(self):
        with pytest.raises(ParseError, match="unit"):
            parse_activity_csv(io.StringIO("compound_key,smiles,value,kind\nc1,CCO,12,IC50\n"))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,0,IC50,uM\n"))

    def test_short_row_rejected(self):
        with pytest.raises(ParseError, match="line 3: expected 5 columns, found 3$"):
            parse_activity_csv(io.StringIO(self.HEADER + "c1,CCO,12,IC50,uM\nc2,CCO,12\n"))


def test_compounds_csv_round_trip():
    from cardiotox.dataset import parse_compounds_csv, write_compounds_csv

    compounds = [Compound("a", "CCO", 6.123456789012345), Compound("b", "CCN", 4.5)]
    buf = io.StringIO()
    write_compounds_csv(compounds, buf)
    restored = parse_compounds_csv(io.StringIO(buf.getvalue()))
    assert restored == compounds  # repr() serialization keeps pic50 exact


def test_compounds_csv_rejects_duplicate_key():
    from cardiotox.dataset import parse_compounds_csv

    text = "compound_key,smiles,pic50\nc0,C,6.5\n\nc1,C,4.0\nc0,C,5.0\n"
    with pytest.raises(ParseError, match=r"line 5: duplicate compound key 'c0' \(first on line 2\)"):
        parse_compounds_csv(io.StringIO(text))


def test_compounds_csv_rejects_short_row():
    from cardiotox.dataset import parse_compounds_csv

    with pytest.raises(ParseError, match="line 2: expected 3 columns, found 2$"):
        parse_compounds_csv(io.StringIO("pic50,smiles,compound_key\n6.0,CC\n"))


def test_inputs_with_a_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark; the first header name must not keep it.
    from cardiotox.dataset import parse_compounds_csv, write_compounds_csv

    compounds = [Compound("a", "CCO", 6.5), Compound("b", "CCN", 4.5)]
    plain = tmp_path / "compounds.csv"
    write_compounds_csv(compounds, plain)
    assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")  # writes add no mark
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_compounds_csv(marked) == compounds

    activities = tmp_path / "activities.csv"
    activities.write_text(TestParseActivityCsv.HEADER + "c1,CCO,12,IC50,uM\n", encoding="utf-8-sig")
    assert parse_activity_csv(activities)[0].compound_key == "c1"


def test_compounds_csv_strips_header_names():
    from cardiotox.dataset import parse_compounds_csv

    text = "compound_key, smiles , pic50\nc0,C,6.5\n"
    assert parse_compounds_csv(io.StringIO(text)) == [Compound("c0", "C", 6.5)]


def test_undecodable_file_names_its_byte_offset(tmp_path):
    # Past the first 8 KiB, so that the bad byte lies beyond the decoder's first chunk.
    rows = "".join(f"c{i},{i}.5\n" for i in range(2000))
    data = ("Name,f0\n" + rows).encode("utf-8")
    offset = len(data) - 4
    path = tmp_path / "descriptors.csv"
    path.write_bytes(data[:offset] + "é".encode("cp1252") + data[offset:])
    with pytest.raises(ParseError, match=rf"descriptors\.csv is not UTF-8 text: byte offset {offset}:"):
        parse_descriptor_csv(path)


# Per CSV parser: its header, a valid row given a key and a text that may hold
# line breaks, a row that fails on its cells, and that failure's message.
CSV_PARSERS = {
    "descriptors": (parse_descriptor_csv, ["Name", "f1", "f2"], lambda key, text: [key + text, "1.5", ""],
                    ["bad", "abc", "1"], "cell 'abc' in feature 'f1' is not a real number"),
    "activities": (parse_activity_csv, ["compound_key", "smiles", "value", "kind", "unit"],
                   lambda key, text: [key, "C" + text, "12", "IC50", "uM"],
                   ["bad", "C", "0", "IC50", "uM"], "potency_value must be a finite positive real, got 0.0"),
    "compounds": (parse_compounds_csv, ["compound_key", "smiles", "pic50"], lambda key, text: [key, "C" + text, "6.5"],
                  ["bad", "C", "x"], "pic50 'x' is not a number"),
}


def csv_line(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


@st.composite
def csv_texts(draw, header, good_row):
    """Blank lines, the header, then valid rows, some with a quoted cell
    spanning lines, each after blank lines. Returns (text, next physical line)."""
    text = "\n" * draw(st.integers(0, 2)) + csv_line(header)
    for i in range(draw(st.integers(0, 3))):
        text += "\n" * draw(st.integers(0, 2))
        text += csv_line(good_row(f"c{i}", "\nx" * draw(st.integers(0, 2))))
    text += "\n" * draw(st.integers(0, 2))
    return text, text.count("\n") + 1


def parsed(parse, text):
    """A parser's rows, comparable with ==."""
    result = parse(io.StringIO(text))
    if isinstance(result, DescriptorTable):
        return [(key, row.tobytes()) for key, row in zip(result.row_keys, result.values)]
    return result


@pytest.mark.parametrize("name", sorted(CSV_PARSERS))
class TestSharedCsvRules:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_error_names_the_bad_rows_physical_line(self, name, data):
        parse, header, good_row, bad_row, message = CSV_PARSERS[name]
        text, line = data.draw(csv_texts(header, good_row))
        with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$"):
            parse(io.StringIO(text + csv_line(bad_row)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), wider=st.booleans())
    def test_row_of_another_width_is_refused(self, name, data, wider):
        parse, header, good_row, _, _ = CSV_PARSERS[name]
        text, line = data.draw(csv_texts(header, good_row))
        row = good_row("odd", "")
        row = row + ["extra"] if wider else row[:-1]
        with pytest.raises(ParseError, match=f"^line {line}: expected {len(header)} columns, found {len(row)}$"):
            parse(io.StringIO(text + csv_line(row)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_repeated_column_name_is_refused(self, name, data):
        parse, header, good_row, _, _ = CSV_PARSERS[name]
        repeated = data.draw(st.sampled_from(header))
        at = data.draw(st.integers(0, len(header)))
        blanks = data.draw(st.integers(0, 2))
        text = "\n" * blanks + csv_line([*header[:at], f" {repeated} ", *header[at:]])
        with pytest.raises(ParseError, match=f"^line {blanks + 1}: duplicate column names: {repeated}$"):
            parse(io.StringIO(text + csv_line([*good_row("c0", ""), "1"])))

    def test_blank_lines_before_the_header_are_skipped(self, name):
        parse, header, good_row, _, _ = CSV_PARSERS[name]
        text = csv_line(header) + csv_line(good_row("c0", "")) + "\n" + csv_line(good_row("c1", "\nx"))
        assert parsed(parse, "\n\n" + text) == parsed(parse, text)
        assert len(parsed(parse, text)) == 2


@pytest.mark.parametrize("parse, text, message", [
    # A blank line does not shift the line an activity error names.
    pytest.param(parse_activity_csv, TestParseActivityCsv.HEADER + "c1,CCO,12,IC50,uM\n\n\nc2,CCO,0,IC50,uM\n",
                 "line 5: potency_value must be a finite positive real, got 0.0", id="activities-blank-lines"),
    # Extra cells are refused, not dropped.
    pytest.param(parse_compounds_csv, "compound_key,smiles,pic50\nc0,C,6.5,extra,cells\n",
                 "line 2: expected 3 columns, found 5", id="compounds-extra-cells"),
    pytest.param(parse_activity_csv, TestParseActivityCsv.HEADER + "c1,CCO,12,IC50,uM,HEK293\n",
                 "line 2: expected 5 columns, found 6", id="activities-extra-cell"),
    # A quoted cell spanning lines 2-3 puts the bad row on physical line 4.
    pytest.param(parse_descriptor_csv, 'Name,f1\n"c\n1",1\nc2,abc\n',
                 "line 4: cell 'abc' in feature 'f1' is not a real number", id="descriptors-multi-line-cell"),
    pytest.param(parse_activity_csv, TestParseActivityCsv.HEADER + 'c1,"C\nCO",12,IC50,uM\nc2,CCO,12,IC50,pM\n',
                 "line 4: unsupported unit token 'pM'", id="activities-multi-line-cell"),
    # A repeated column is refused, not read from its last copy.
    pytest.param(parse_compounds_csv, "compound_key,smiles,pic50,pic50\nc0,C,6.5,4.0\n",
                 "line 1: duplicate column names: pic50", id="compounds-repeated-column"),
])
def test_csv_errors_name_the_physical_line_of_a_malformed_row(parse, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(io.StringIO(text))


def test_key_overrides_refuse_a_raw_key_mapped_twice():
    text = "# raw\tcanonical\na\tA\nb\tB  # comment\n\na \t C\n"
    with pytest.raises(ParseError, match=r"^line 5: duplicate raw key 'a' \(first on line 2\)$"):
        load_key_overrides(io.StringIO(text))
    assert load_key_overrides(io.StringIO(text.replace("a \t C", "c\tC"))) == {"a": "A", "b": "B", "c": "C"}
