import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgebound
from bridgebound.data import (BenchmarkSpec, Dataset, SyntheticSpec,
                              fractional_ranks, generate_synthetic, load_dataset,
                              save_dataset)
from bridgebound.errors import BridgeboundError

from conftest import rng


def small_dataset(benchmark=None):
    treat = np.array([0, 0, 0, 1, 1])
    med = np.array([0.1, -0.4, 1.2, 0.9, 0.0])
    out = np.array([1.0, 0.5, -0.2, 2.0, 1.1])
    return Dataset(treat, med, out, np.empty((5, 0)), benchmark)


class TestDatasetValidation:
    def test_treatment_must_be_binary(self):
        with pytest.raises(BridgeboundError, match="must be 0/1"):
            Dataset(np.array([0, 1, 2, 0, 1]), np.zeros(5), np.zeros(5),
                    np.empty((5, 0)))

    def test_arm_minimum_depends_on_p(self):
        # p = 1 needs 3 rows per arm; arm 1 only has 2
        with pytest.raises(BridgeboundError, match="arm 1 has 2 rows"):
            Dataset(np.array([0, 0, 0, 1, 1]), np.zeros(5), np.zeros(5),
                    np.ones((5, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(BridgeboundError, match="non-finite value in mediator"):
            Dataset(np.array([0, 0, 1, 1]), np.array([0.0, np.nan, 0.0, 0.0]),
                    np.zeros(4), np.empty((4, 0)))
        with pytest.raises(BridgeboundError, match="non-finite value in benchmark"):
            small_dataset(benchmark=np.array([0.0, 1.0, np.inf, 0.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(BridgeboundError, match="column lengths disagree"):
            Dataset(np.array([0, 0, 1, 1]), np.zeros(3), np.zeros(4),
                    np.empty((4, 0)))

    @pytest.mark.parametrize("column,value", [
        ("treatment", np.repeat([[0], [1]], 3, axis=0)), ("mediator", np.zeros((6, 2))),
        ("outcome", np.zeros((6, 1))), ("benchmark", np.zeros((6, 1))),
        ("covariates", np.zeros((6, 1, 1))), ("treatment", 1),
    ], ids=["treatment_column", "mediator_two_columns", "outcome_column", "benchmark_column",
            "covariates_3d", "treatment_scalar"])
    def test_column_shapes(self, column, value):
        # each used to fail late, inside a fit, with a bare numpy error
        columns = {"treatment": np.repeat([0, 1], 3), "mediator": np.zeros(6),
                   "outcome": np.zeros(6), "covariates": np.empty((6, 0)), column: value}
        with pytest.raises(BridgeboundError, match=f"^{column} must"):
            Dataset(**columns)

    def test_arm_indices(self):
        data = small_dataset(benchmark=np.arange(5.0))
        assert np.array_equal(data.arm_indices(0), [0, 1, 2])
        assert np.array_equal(data.arm_indices(1), [3, 4])


BARE_SCHEMA = {"treatment": "treat", "mediator": "m", "outcome": "y", "covariates": []}


def reference_load(path, schema):
    """load_dataset rebuilt on csv.DictReader and float(), one cell at a time."""
    cov_names = list(schema.get("covariates", ()))
    bench_name = schema.get("benchmark")
    wanted = [schema["treatment"], schema["mediator"], schema["outcome"]]
    wanted += cov_names + ([bench_name] if bench_name else [])
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in wanted:
            if name not in header:
                raise BridgeboundError(f"column '{name}' not in CSV header {header}")
        rows = list(reader)
    columns = {name: [] for name in wanted}
    for row in rows:
        for name in wanted:
            raw = row[name]
            try:
                value = float(raw)
            except (TypeError, ValueError):
                raise BridgeboundError(f"column '{name}': cannot parse {raw!r}") from None
            if not math.isfinite(value):
                raise BridgeboundError(f"column '{name}': non-finite value {raw!r}")
        for name, column in columns.items():
            column.append(float(row[name]))
    cov = np.array([columns[name] for name in cov_names]).T.reshape(len(rows), len(cov_names))
    return Dataset(np.array(columns[wanted[0]]), np.array(columns[wanted[1]]),
                   np.array(columns[wanted[2]]), np.ascontiguousarray(cov),
                   np.array(columns[bench_name]) if bench_name else None)


# cells numpy's parser reads as float() does; spellings only float() reads;
# cells no one reads or that read as non-finite; treatment cells other than 0 and 1
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10**6, 10**6).map(str),
                     st.floats(-1e3, 1e3).map(lambda v: f"{v:.6f}"))
_FLOAT_ONLY = st.sampled_from(["1_0", "\u0663", "\u0661.\u0665", "\xa02", " 2 ", "\t3", "+.5",
                               "1.", "1e-400", "4.9e-324"])
_BAD = st.sampled_from(["1e400", "nan", "-inf", "Infinity", "", " ", "oops", "0x10", "1d5",
                        "1 0"])
_ODD_ARMS = st.sampled_from(["1.0", " 0", "0e0", "2", "-0"])


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


# each rewrites one cell of a row: quoted, quoted with a doubled quote, quoted
# across a line break, or a quote closed before the cell ends
_WRAPS = {"quoted": _quoted, "doubled": lambda c: _quoted(c + '"'),
          "newline": lambda c: _quoted(c + "\n"), "early": lambda c: _quoted(c[:1]) + c[1:]}


@st.composite
def csv_texts(draw):
    """(file bytes, schema): a clean random CSV with a few edits on the edges
    load_dataset must keep (odd cells and quoting, blank, short and long rows,
    repeated and unused names, line ends, a byte-order mark)."""
    covariates = draw(st.sampled_from([[], ["x"], ["x", "y"]]))
    bench = draw(st.sampled_from([None, "w"]))
    names = ["treat", "m", "y"] + covariates[:1] + ([bench] if bench else [])
    names += draw(st.sampled_from([[], ["z"], ["m"], ["treat", "z"]]))   # unused and repeated
    header = draw(st.permutations(names))
    rows = [[str(i % 2) if name == "treat" else draw(_NUMBERS) for name in header]
            for i in range(draw(st.integers(0, 14)))]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, max(len(rows[i]) - 1, 0)))
        edit = draw(st.sampled_from(["float_only", "bad", "arm", "blank", "space", "short",
                                     "long", *_WRAPS]))
        if edit in ("blank", "space"):
            rows.insert(i, [] if edit == "blank" else [" "])
        elif edit == "short":
            del rows[i][-1:]
        elif edit == "long":
            rows[i] += [draw(_NUMBERS), ""]
        elif rows[i]:
            cells = {"float_only": _FLOAT_ONLY, "bad": _BAD, "arm": _ODD_ARMS}
            rows[i][j] = draw(cells[edit]) if edit in cells else _WRAPS[edit](rows[i][j])
    lines = [",".join(header)] + [",".join(row) for row in rows]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    raw = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")
    schema = {"treatment": "treat", "mediator": "m", "outcome": "y", "covariates": covariates}
    if bench:
        schema["benchmark"] = bench
    return raw, schema


# (mediator cell, its loaded value or the exact error message); the cells that
# load are exactly those float() accepts
LOAD_CELLS = [
    ("1_000", 1000.0), ("\u0661\u0662", 12.0), (" 2 ", 2.0), ("\t3\n", 3.0),
    ("\xa02", 2.0), ("+1.5", 1.5), ("1.", 1.0), (".5", 0.5), ("1E-5", 1e-5),
    ("4.9e-324", 5e-324), ("1e-400", 0.0), ("\u0663.\u0665", 3.5),
    ("1e400", "column 'm': non-finite value '1e400'"),
    ("-1e400", "column 'm': non-finite value '-1e400'"),
    ("nan", "column 'm': non-finite value 'nan'"),
    ("-Infinity", "column 'm': non-finite value '-Infinity'"),
    ("iNF", "column 'm': non-finite value 'iNF'"),
    ("0x10", "column 'm': cannot parse '0x10'"),
    ("", "column 'm': cannot parse ''"),
    ("  ", "column 'm': cannot parse '  '"),
    ("1,0", "column 'm': cannot parse '1,0'"),
    ("1 000", "column 'm': cannot parse '1 000'"),
    ("0b1", "column 'm': cannot parse '0b1'"),
    ("\u22121", "column 'm': cannot parse '\u22121'"),
    ("1e", "column 'm': cannot parse '1e'"),
    ("1__0", "column 'm': cannot parse '1__0'"),
    ("_1", "column 'm': cannot parse '_1'"),
    ("1d5", "column 'm': cannot parse '1d5'"),
    ("True", "column 'm': cannot parse 'True'"),
    ("oops", "column 'm': cannot parse 'oops'"),
]

_ROWS = "0,1.0,2.0\n0,0.3,0.0\n1,0.5,1.0\n1,0.2,0.9\n"

# (id, file text, loaded mediator column or the exact error message)
LOAD_FILES = [
    ("short_row", "treat,m,y\n0,1.0,2.0\n0,0.3\n1,0.5,1.0\n1,0.2,0.9\n",
     "column 'y': cannot parse None"),
    ("space_only_row", "treat,m,y\n0,1.0,2.0\n \n1,0.5,1.0\n1,0.2,0.9\n",
     "column 'treat': cannot parse ' '"),
    ("long_row", "treat,m,y\n0,1.0,2.0,x,\n0,0.3,0.0\n1,0.5,1.0,7\n1,0.2,0.9\n",
     [1.0, 0.3, 0.5, 0.2]),
    ("repeated_name", "treat,m,y,m\n0,oops,2.0,4\n0,,0.0,3\n1,0.5,1.0,2\n1,0.2,0.9,1\n",
     [4.0, 3.0, 2.0, 1.0]),
    ("blank_lines", "treat,m,y\n\n0,1.0,2.0\n\n\n0,0.3,0.0\n1,0.5,1.0\n1,0.2,0.9\n\n",
     [1.0, 0.3, 0.5, 0.2]),
    ("crlf", "treat,m,y\r\n" + _ROWS.replace("\n", "\r\n"), [1.0, 0.3, 0.5, 0.2]),
    ("header_only", "treat,m,y\n", "arm 0 has 0 rows, needs at least 2"),
    ("empty_file", "", "column 'treat' not in CSV header []"),
    ("blank_header", "\ntreat,m,y\n" + _ROWS, "column 'treat' not in CSV header []"),
    # row-major: row 1's y is named before row 2's treatment or row 3's m
    ("two_bad_cells", "treat,m,y\n0,1.0,2.0\n0,0.3,nope\ninf,0.5,1.0\n1,bad,0.9\n",
     "column 'y': cannot parse 'nope'"),
    ("non_finite_before_bad", "treat,m,y\n0,1.0,2.0\n0,nan,0.0\n1,0.5,x\n1,0.2,0.9\n",
     "column 'm': non-finite value 'nan'"),
]


def csv_writer_bytes(data):
    """save_dataset's file as csv.writer writes it, cell by cell."""
    ref = io.StringIO(newline="")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["treat", "m", "y"] + [f"x{j + 1}" for j in range(data.p)]
                    + (["w"] if data.benchmark is not None else []))
    for i in range(data.n):
        row = [str(int(data.treatment[i])), format(data.mediator[i], ".17g"),
               format(data.outcome[i], ".17g")]
        row += [format(v, ".17g") for v in data.covariates[i]]
        if data.benchmark is not None:
            row.append(format(data.benchmark[i], ".17g"))
        writer.writerow(row)
    return ref.getvalue().encode("utf-8")


class TestCsvRoundtrip:
    def test_save_load_identity(self, tmp_path):
        data, _ = generate_synthetic(
            SyntheticSpec(n=50, p=2, beta_m=(0.5, 1.0, 0.3, -0.2),
                          benchmark=BenchmarkSpec(0.0, 2.0)), seed=3)
        path = tmp_path / "round.csv"
        save_dataset(data, str(path))
        back = load_dataset(str(path))
        assert np.array_equal(back.treatment, data.treatment)
        assert np.array_equal(back.mediator, data.mediator)
        assert np.array_equal(back.outcome, data.outcome)
        assert np.array_equal(back.covariates, data.covariates)
        assert np.array_equal(back.benchmark, data.benchmark)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with a BOM; the header's first
        # name must still read 'treat', for an inferred and an explicit schema
        data, _ = generate_synthetic(
            SyntheticSpec(n=50, p=2, beta_m=(0.5, 1.0, 0.3, -0.2),
                          benchmark=BenchmarkSpec(0.0, 2.0)), seed=3)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_dataset(data, str(plain))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for sch in (None, BARE_SCHEMA):
            back, ref = load_dataset(str(bom), sch), load_dataset(str(plain), sch)
            for name in ("treatment", "mediator", "outcome", "covariates", "benchmark"):
                assert np.array_equal(getattr(back, name), getattr(ref, name))

    @pytest.mark.parametrize("p,bench_spec", [(0, None), (2, BenchmarkSpec(-1.0, 3.0))],
                             ids=["p0", "p2_benchmark"])
    def test_save_matches_csv_writer(self, tmp_path, p, bench_spec):
        data, _ = generate_synthetic(
            SyntheticSpec(n=40, p=p, beta_m=(0.5, 1.2) + (0.3,) * p,
                          benchmark=bench_spec), seed=5)
        path = tmp_path / "saved.csv"
        save_dataset(data, str(path))
        assert path.read_bytes() == csv_writer_bytes(data)

    @pytest.mark.parametrize("bench_spec", [None, BenchmarkSpec(-1.0, 3.0)], ids=["no_w", "w"])
    @pytest.mark.parametrize("n", [4095, 4096, 4097])
    def test_save_blocks_match_csv_writer(self, tmp_path, n, bench_spec):
        # save_dataset formats 4096 rows at a time: one block short of, at and past it
        data, _ = generate_synthetic(
            SyntheticSpec(n=n, p=1, beta_m=(0.5, 1.2, 0.3), benchmark=bench_spec), seed=6)
        path = tmp_path / "saved.csv"
        save_dataset(data, str(path))
        assert path.read_bytes() == csv_writer_bytes(data)

    def test_survey_style_header(self, tmp_path):
        # externally named columns mapped through an explicit schema
        r = rng(19)
        n = 265
        path = tmp_path / "survey.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["treat", "emo", "p_harm", "age", "educ",
                             "gender", "income"])
            rows = [[i % 2, f"{r.normal():.6f}", f"{r.normal():.6f}",
                     r.integers(18, 80), r.integers(1, 5),
                     r.integers(0, 2), r.integers(1, 10)] for i in range(n)]
            writer.writerows(rows)
        schema = {"treatment": "treat", "mediator": "emo", "outcome": "p_harm",
                  "covariates": ["income", "age", "gender", "educ"]}
        data = load_dataset(str(path), schema)
        assert data.n == 265 and data.p == 4
        # covariate columns come in schema order, not header order
        written = np.array([row[3:] for row in rows], dtype=np.float64)
        assert np.array_equal(data.covariates, written[:, [3, 0, 2, 1]])
        assert data.benchmark is None

    def test_missing_column_names_offender(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("treat,m\n0,1.0\n1,2.0\n")
        with pytest.raises(BridgeboundError, match="'y'"):
            load_dataset(str(path), BARE_SCHEMA)

    @pytest.mark.parametrize("raw,expected", LOAD_CELLS,
                             ids=[raw.encode("unicode_escape").decode() or "empty"
                                  for raw, _ in LOAD_CELLS])
    def test_edge_cell(self, tmp_path, raw, expected):
        # the mediator cell of the second row; accepted exactly when float() accepts it
        path = tmp_path / "cell.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["treat", "m", "y"], [0, 1.0, 2.0], [0, raw, 0.0],
                                      [1, 0.5, 1.0], [1, 0.2, 0.9]])
        if isinstance(expected, float):
            assert load_dataset(str(path), BARE_SCHEMA).mediator[1] == expected
        else:
            with pytest.raises(BridgeboundError) as info:
                load_dataset(str(path), BARE_SCHEMA)
            assert type(info.value) is BridgeboundError and str(info.value) == expected

    @pytest.mark.parametrize("text,expected", [c[1:] for c in LOAD_FILES],
                             ids=[c[0] for c in LOAD_FILES])
    def test_file_shape(self, tmp_path, text, expected):
        path = tmp_path / "shape.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(BridgeboundError) as info:
                load_dataset(str(path), BARE_SCHEMA)
            assert type(info.value) is BridgeboundError and str(info.value) == expected
        else:
            data = load_dataset(str(path), BARE_SCHEMA)
            assert np.array_equal(data.mediator, expected)

    @settings(max_examples=300)
    @given(case=csv_texts())
    def test_matches_dict_reader_reference(self, tmp_path_factory, case):
        raw, schema = case
        path = tmp_path_factory.mktemp("prop") / "data.csv"
        path.write_bytes(raw)
        outcomes = []
        for load in (load_dataset, reference_load):
            try:
                outcomes.append(load(str(path), schema))
            except BridgeboundError as exc:
                outcomes.append(exc)
        got, want = outcomes
        if isinstance(want, BridgeboundError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            for name in ("treatment", "mediator", "outcome", "covariates", "benchmark"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    # contiguous, as a fit's last bits depend on the column layout
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), name

    def test_large_refusal_pass_matches_clean_load(self, tmp_path):
        # row 1's treatment cell reads as the same 0 or 1 to float() but not to
        # numpy's tokenizer, so the whole file takes the csv.reader pass
        data, _ = generate_synthetic(
            SyntheticSpec(n=5000, p=2, beta_m=(0.5, 1.0, 0.3, -0.2),
                          benchmark=BenchmarkSpec(0.0, 2.0)), seed=8)
        clean, odd = tmp_path / "clean.csv", tmp_path / "odd.csv"
        save_dataset(data, str(clean))
        header, first, rest = clean.read_bytes().split(b"\n", 2)
        odd.write_bytes(b"\xef\xbb\xbf" + b"\n".join([header, b"0_" + first, rest]))
        back, ref = load_dataset(str(odd)), load_dataset(str(clean))
        for name in ("treatment", "mediator", "outcome", "covariates", "benchmark"):
            a, b = getattr(back, name), getattr(ref, name)
            assert a.flags.c_contiguous and a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_refused_fifo_fails_instead_of_hanging(self, tmp_path):
        # the csv.reader pass rewinds the handle it holds; a pipe cannot rewind,
        # and reopening one by path would wait for a writer that never comes.
        # An inferred schema is read from the same handle's header
        script = (
            "import sys, threading\n"
            "from bridgebound import cli\n"
            "def feed():\n"
            "    with open(sys.argv[1], 'w') as fh:\n"
            "        fh.write('treat,m,y\\n' + '0,0_3,1\\n1,2,0_3\\n' * 4)\n"
            "threading.Thread(target=feed, daemon=True).start()\n"
            "sys.exit(cli.main(['fit', '--config', sys.argv[2], '--out', sys.argv[3]]))\n")
        src = str(Path(bridgebound.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for name, schema in (("explicit", {"schema": BARE_SCHEMA}), ("inferred", {})):
            fifo, config = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            os.mkfifo(fifo)
            config.write_text(json.dumps({
                "data": str(fifo), **schema, "setting": {"route": "si_anchor"},
                "draws": 10}))
            proc = subprocess.run([sys.executable, "-c", script, str(fifo), str(config),
                                   str(tmp_path / f"{name}.out")],
                                  capture_output=True, text=True, timeout=30, env=env)
            assert proc.returncode == 2, (name, proc.stderr)
            assert "not seekable" in proc.stderr and "Traceback" not in proc.stderr, name

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("treat,m,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BridgeboundError, match="arm 0 has 0 rows"):
                load_dataset(str(path), BARE_SCHEMA)

    def test_schema_keys_required(self, tmp_path):
        with pytest.raises(BridgeboundError, match="schema key 'mediator' is required"):
            load_dataset(str(tmp_path / "x.csv"), {"treatment": "treat"})

    def test_infer_schema(self, tmp_path):
        # without a schema the header names the columns: x1, x2 in number
        # order whatever the header's order, and w as the benchmark if present
        data, _ = generate_synthetic(
            SyntheticSpec(n=12, p=2, beta_m=(0.5, 1.0, 0.3, -0.2),
                          benchmark=BenchmarkSpec(0.0, 2.0)), seed=4)
        canon = tmp_path / "canon.csv"
        save_dataset(data, str(canon))
        rows = list(csv.reader(canon.read_text().splitlines()))
        path = tmp_path / "swapped.csv"
        path.write_text("".join(",".join(r[:3] + [r[4], r[3], r[5]]) + "\n" for r in rows))
        back = load_dataset(str(path))
        assert np.array_equal(back.covariates, data.covariates)
        assert np.array_equal(back.benchmark, data.benchmark)
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(",".join(r[:3]) + "\n" for r in rows))
        back = load_dataset(str(bare))
        assert back.benchmark is None and back.covariates.shape == (12, 0)
        odd = tmp_path / "odd.csv"
        odd.write_text("arm,m,y\n")
        with pytest.raises(BridgeboundError, match="header lacks"):
            load_dataset(str(odd))


class TestRanks:
    def test_frozen_rank_values(self):
        data = small_dataset(benchmark=np.array([3.0, 1.0, 2.0, 5.0, 5.0]))
        full = fractional_ranks(data)
        assert np.array_equal(full[data.arm_indices(0)], [1.0, 1.0 / 3.0, 2.0 / 3.0])
        # ties share the highest rank in the tied block
        assert np.array_equal(full[data.arm_indices(1)], [1.0, 1.0])
        assert np.array_equal(full, [1.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0])

    def test_ranks_invariant_under_monotone_transform(self):
        w = rng(21).permutation(np.arange(40.0))
        treat = np.repeat([0, 1], 20)
        base = Dataset(treat, np.zeros(40), np.zeros(40), np.empty((40, 0)), w)
        warped = Dataset(treat, np.zeros(40), np.zeros(40), np.empty((40, 0)),
                         np.exp(w / 10.0))
        assert np.array_equal(fractional_ranks(base), fractional_ranks(warped))

    def test_ranks_need_benchmark(self):
        with pytest.raises(BridgeboundError, match="no benchmark column"):
            fractional_ranks(small_dataset())


class TestSyntheticGenerator:
    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(n=80, p=2, beta_m=(0.5, 1.2, 0.8, -0.4),
                             c_a=0.7, c_m=0.9,
                             benchmark=BenchmarkSpec(0.0, 2.0, 0.5, 0.4))
        a, truth_a = generate_synthetic(spec, seed=7)
        b, truth_b = generate_synthetic(spec, seed=7)
        assert np.array_equal(a.mediator, b.mediator)
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.benchmark, b.benchmark)
        assert truth_a == truth_b
        c, _ = generate_synthetic(spec, seed=8)
        assert not np.array_equal(a.mediator, c.mediator)

    def test_truth_decomposition(self):
        spec = SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.5), c_a=0.25, c_m=2.0)
        _, truth = generate_synthetic(spec, seed=1)
        assert truth["nie"] == 3.0 and truth["nde"] == 0.25
        assert truth["te"] == 3.25 and truth["mediator_ignorable"]

    def test_ignorability_flag(self):
        leaky = SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0),
                              benchmark=BenchmarkSpec(0.0, 1.0, 0.5, 0.4))
        _, truth = generate_synthetic(leaky, seed=1)
        assert not truth["mediator_ignorable"]
        one_sided = SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0),
                                  benchmark=BenchmarkSpec(0.0, 1.0, 0.5, 0.0))
        _, truth = generate_synthetic(one_sided, seed=1)
        assert truth["mediator_ignorable"]

    def test_spec_validation(self):
        with pytest.raises(BridgeboundError, match="beta_m must have length"):
            generate_synthetic(SyntheticSpec(n=60, p=1, beta_m=(0.0, 1.0)), 1)
        with pytest.raises(BridgeboundError, match="'sigma_m' must be a number > 0"):
            generate_synthetic(
                SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0), sigma_m=-1.0), 1)
        with pytest.raises(BridgeboundError, match=r"'treat_prob' must be a number in \(0, 1\)"):
            generate_synthetic(
                SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0), treat_prob=1.0), 1)
        with pytest.raises(BridgeboundError, match="leaves an arm"):
            generate_synthetic(
                SyntheticSpec(n=6, p=4, beta_m=(0.0,) * 6), 1)
        with pytest.raises(BridgeboundError, match="high > low"):
            generate_synthetic(
                SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0),
                              benchmark=BenchmarkSpec(2.0, 2.0)), 1)

    def test_mediator_coefficients_recoverable(self):
        spec = SyntheticSpec(n=5000, p=1, beta_m=(0.0, 1.0, 0.5))
        data, _ = generate_synthetic(spec, seed=29)
        design = np.column_stack([np.ones(data.n), data.treatment, data.covariates])
        coef, res, *_ = np.linalg.lstsq(design, data.mediator, rcond=None)
        sig2 = res[0] / (data.n - 3)
        se = np.sqrt(sig2 * np.diag(np.linalg.inv(design.T @ design)))
        assert np.all(np.abs(coef - np.array([0.0, 1.0, 0.5])) <= 3.0 * se)

    def test_treated_share_matches_probability(self):
        spec = SyntheticSpec(n=400, p=0, beta_m=(0.0, 1.0), treat_prob=0.3)
        data, _ = generate_synthetic(spec, seed=31)
        assert int(data.treatment.sum()) == 120
