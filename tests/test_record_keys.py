"""The record-key index against the per-row dict loops it replaced, the
reader against the per-cell reader it replaced, and every loader against its
per-row reference, on generated and mutated files."""

import dataclasses
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmfusion import cli, pipeline
from pmfusion import io as pio
from pmfusion.downscaler import SourcePredictions
from pmfusion.ensemble import _EnsembleProblem
from pmfusion.errors import PmFusionError, SchemaError
from pmfusion.geo import CTM, SAT, GridSpec, Location
from pmfusion.tables import N_COVARIATES, ObservationTable, PredictiveTable

from oracles import (
    cell_read_csv,
    dict_full_predictive_targets,
    dict_join_observations,
    dict_key_index,
    dict_key_rows,
    dict_load_covariates,
    dict_load_grid,
    dict_load_monitors,
    dict_load_obs,
    dict_load_predictive,
    dict_load_weight_samples,
    dict_load_weights,
    dict_observed,
    dict_refuse_repeats,
    dict_row_weights,
    dict_site_index,
)

# few distinct values, so that keys repeat; text with quotes, a comma, a line
# break, a NUL and non-ASCII letters
TEXT = ["a01", "b02", "ü-3", "日本", 'q"t', "c,d", "e\nf", "g\x00", "g", "A01"]
INTS = [0, 1, 2, -1, 7, 2**40, -(2**53)]
KEY_COLUMNS = st.lists(
    st.one_of(
        st.lists(st.sampled_from(TEXT), max_size=30).map(lambda v: np.asarray(v, dtype=object)),
        st.lists(st.sampled_from(INTS), max_size=30).map(lambda v: np.asarray(v, dtype=np.int64)),
    ),
    min_size=1,
    max_size=3,
)


def _same_length(columns):
    n = min(len(c) for c in columns)
    return tuple(c[:n] for c in columns)


class TestKeyIndex:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(KEY_COLUMNS)
    def test_codes_and_first_rows_match_the_dict(self, columns):
        columns = _same_length(columns)
        code, first = pio.key_index(*columns)
        want_code, want_first = dict_key_index(*columns)
        assert code.dtype == first.dtype == np.int64
        np.testing.assert_array_equal(code, want_code)
        np.testing.assert_array_equal(first, want_first)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(KEY_COLUMNS, st.data())
    def test_rows_of_query_keys_match_the_dict(self, columns, data):
        columns = _same_length(columns)
        n = len(columns[0])
        cut = data.draw(st.integers(0, n))
        table, query = tuple(c[:cut] for c in columns), tuple(c[cut:] for c in columns)
        np.testing.assert_array_equal(pio.key_rows(table, query), dict_key_rows(table, query))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(KEY_COLUMNS)
    def test_first_repeat_matches_the_dict(self, columns):
        columns = _same_length(columns)
        lines = list(range(2, 2 + len(columns[0])))
        keys = zip(*(c.tolist() for c in columns)) if len(columns) > 1 else columns[0].tolist()
        assert _outcome(pio._refuse_repeats, "f.csv", lines, columns, "key") == _outcome(
            dict_refuse_repeats, "f.csv", lines, keys, "key"
        )

    def test_wide_keys_do_not_overflow(self):
        # three columns of a million distinct values each
        n = 1_000_000
        a = np.arange(n, dtype=np.int64)
        code, first = pio.key_index(a, a[::-1].copy(), a)
        np.testing.assert_array_equal(code, a)
        np.testing.assert_array_equal(first, a)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PmFusionError as e:
        return type(e), str(e)


def _same_outcome(got, want):
    """The same result bit for bit, or the same error class and message."""
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _same(got[1], want[1])
    else:
        assert got[1] == want[1]


# --- the loaders on generated files --------------------------------------

SITES = [Location("a01", 1.0, 2.0), Location("ü-3", 5.0, 1.0), Location("日 本", 3.0, 3.0), Location("x,y", 0.5, 4.0)]
SITE_IDS = [s.site_id for s in SITES]
SPEC = GridSpec(0.0, 0.0, 1.0, 2, 3)

num = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
pos = st.floats(1e-3, 1e6).map(repr)
unit = st.floats(0.0, 1.0).map(repr)
maybe = st.one_of(num, st.just(""))
site = st.sampled_from(SITE_IDS)
day = st.integers(1, 4).map(str)


def _keyed(key, rest):
    """Rows with distinct keys: a key strategy of tuples and one per other column."""
    return st.lists(key, unique=True, max_size=12).flatmap(
        lambda keys: st.tuples(*(st.tuples(*rest) for _ in keys)).map(
            lambda vals: [(*k, *v) for k, v in zip(keys, vals)]
        )
    )


@st.composite
def _weight_sample_rows(draw):
    """A complete (sample, site) grid in shuffled order."""
    n = draw(st.integers(1, 3))
    sites = draw(st.lists(site, unique=True, min_size=1, max_size=4))
    rows = [(str(s), sid, draw(num), "1.0", "30.0") for s in range(n) for sid in sites]
    return draw(st.permutations(rows))


@st.composite
def _surface_row(draw):
    lo, hi = sorted((draw(num), draw(num)), key=float)
    return (draw(day), str(draw(st.integers(0, 1))), str(draw(st.integers(0, 2))), draw(num), draw(pos), lo, hi,
            draw(unit))


ROWS = {
    "MONITORS": _keyed(st.tuples(st.sampled_from(SITE_IDS + ["b02", "x\ny"])), (num, num)),
    "OBS": _keyed(st.tuples(site, day), (maybe,)),
    "GRID": _keyed(st.tuples(day, st.integers(0, 1).map(str), st.integers(0, 2).map(str)), (maybe,)),
    "COVARIATES": _keyed(st.tuples(site, day), (num,) * 6),
    "PREDICTIVE": _keyed(st.tuples(site, day, st.sampled_from(["ctm", "sat"])), (num, pos)),
    "WEIGHTS": _keyed(st.tuples(site), (unit, unit, unit, num)),
    "WEIGHT_SAMPLES": _weight_sample_rows(),
    "SURFACE": st.lists(_surface_row(), max_size=8),
    "EVALUATION": st.lists(
        st.tuples(st.sampled_from(["ctm", "ensemble"]), st.just("downscaler"), st.just("kfold"),
                  st.integers(0, 99).map(str), pos, unit, pos, maybe),
        max_size=4,
    ),
    "PREDICTIONS": st.lists(st.tuples(site, day, num, pos, num, num, unit), max_size=8),
}

# each loader beside its per-row reference; None where the loader has no key
LOADERS = {
    "MONITORS": (pio.load_monitors, dict_load_monitors),
    "OBS": (pio.load_obs, dict_load_obs),
    "GRID": (lambda p: pio.load_grid(p, SPEC), lambda p: dict_load_grid(p, SPEC)),
    "COVARIATES": (pio.load_covariates, dict_load_covariates),
    "PREDICTIVE": (
        lambda p: pio.load_predictive(p, {s.site_id: s for s in SITES}),
        lambda p: dict_load_predictive(p, {s.site_id: s for s in SITES}),
    ),
    "WEIGHTS": (pio.load_weights, dict_load_weights),
    "WEIGHT_SAMPLES": (lambda p: pio.load_weight_samples(p, SITES), lambda p: dict_load_weight_samples(p, SITES)),
    "SURFACE": (pio.load_surface, None),
    "EVALUATION": (pio.load_evaluation, None),
    "PREDICTIONS": (lambda p: pio.read_csv(p, pio.PREDICTIONS), None),
}

MALFORMED = ["abc", "nan", "inf", "-inf", "1e400", "9007199254740993", "1.5e", " 3 ", "0x10", "1_000", "1" + "0" * 400]
# well-formed, but negative, zero, huge or outside [0, 1]
OUT_OF_RANGE = ["-5", "0", "-0", "2", "-1e308", "1e308", "9007199254740992", "-9007199254740992"]


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\n\r') else text


# the mutations of one cell or row come up three times as often as those of
# the header, a line or the whole file
INSERTED = {"blank": ["", "  ", ","], "comment": ["# note=1"], "unterminated": ['"open,1']}
MUTATIONS = ["drop", "repeat_column", "reorder", "short_row", "long_field", "latin1", "blank", "comment", "hash",
             "unterminated"] + 3 * ["malformed", "out_of_range", "multiline_quote", "repeat_key", "unknown_key", "bom", "crlf"]


@st.composite
def csv_files(draw, name):
    """The bytes of a valid file of the named format, then up to three mutations."""
    fmt = getattr(pio, name)
    header = list(fmt.columns)
    rows = [list(r) for r in draw(ROWS[name])]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    for mutation in mutations:
        if mutation == "drop" and len(header) > 1:
            k = draw(st.integers(0, len(header) - 1))
            header, rows = header[:k] + header[k + 1:], [r[:k] + r[k + 1:] for r in rows]
        elif mutation == "repeat_column":
            k = draw(st.integers(0, len(header) - 1))
            header, rows = header + [header[k]], [r + [r[k]] for r in rows]
        elif mutation == "reorder" and len(header) > 1:
            i, j = draw(st.permutations(range(len(header))))[:2]
            for r in [header, *rows]:
                r[i], r[j] = r[j], r[i]
        elif mutation in ("malformed", "out_of_range") and rows:
            r, k = draw(st.sampled_from(rows)), draw(st.integers(0, len(header) - 1))
            r[k] = draw(st.sampled_from(MALFORMED if mutation == "malformed" else OUT_OF_RANGE))
        elif mutation == "multiline_quote" and rows:
            r, k = draw(st.sampled_from(rows)), draw(st.integers(0, len(header) - 1))
            r[k] = r[k] + "\n"
        elif mutation == "repeat_key" and rows:
            r = list(draw(st.sampled_from(rows)))
            k = draw(st.integers(0, len(header) - 1))
            r[k] = draw(st.sampled_from([r[k], "1.0", "2"]))
            rows.insert(draw(st.integers(0, len(rows))), r)
        elif mutation == "unknown_key" and rows:
            r = draw(st.sampled_from(rows))
            r[0] = draw(st.sampled_from(["zz", "A01", "", "#c"]))
        elif mutation == "long_field" and rows:
            draw(st.sampled_from(rows))[0] = "x" * 140_000
    if "short_row" in mutations and rows:
        draw(st.sampled_from(rows)).pop()
    lines = [",".join(_quote(c) for c in r) for r in [header, *rows]]
    for mutation in mutations:
        if mutation == "hash":
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = "#" + lines[k]
        elif mutation in INSERTED:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(INSERTED[mutation])))
    text = ("\r\n" if "crlf" in mutations else "\n").join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))
    data = text.encode("latin-1", "replace") if "latin1" in mutations else text.encode("utf-8")
    return (b"\xef\xbb\xbf" if "bom" in mutations else b"") + data


def _same(a, b) -> bool:
    """Equal bit for bit: arrays by dtype, shape and bytes (object arrays by
    their values and types), containers and dataclasses field by field."""
    if isinstance(a, np.ndarray):
        if not isinstance(b, np.ndarray) or a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype == object:
            return [(type(x), x) for x in a.tolist()] == [(type(x), x) for x in b.tolist()]
        return a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a) and not isinstance(a, Location):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_matches_its_reference_or_fails_typed_naming_the_file(workdir, name):
    path = workdir / f"{name.lower()}.csv"
    load, reference = LOADERS[name]

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(csv_files(name))
    def check(data):
        path.write_bytes(data)
        try:
            got = ("ok", load(path))
        except PmFusionError as e:
            assert str(path) in str(e), str(e)
            got = (type(e), str(e))
        if reference is not None:
            _same_outcome(got, _outcome(reference, path))

    check()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_read_csv_matches_the_per_cell_reader(workdir, name):
    # the same line numbers and arrays bit for bit, or the same error
    path = workdir / f"read_{name.lower()}.csv"
    fmt = getattr(pio, name)

    @settings(derandomize=True, max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(csv_files(name))
    def check(data):
        path.write_bytes(data)
        _same_outcome(_outcome(pio.read_csv, path, fmt), _outcome(cell_read_csv, path, fmt))

    check()


def test_every_format_has_a_loader_case():
    assert set(LOADERS) == {name for name, v in vars(pio).items() if isinstance(v, pio.CsvFormat)}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_a_byte_order_mark_is_not_part_of_the_first_column(tmp_path, name):
    fmt = getattr(pio, name)
    path = tmp_path / "f.csv"
    path.write_bytes(b"\xef\xbb\xbf" + ",".join(fmt.columns).encode() + b"\n")
    lines, cols = pio.read_csv(path, fmt)
    assert lines == [] and len(cols) == len(fmt.columns)
    assert pio.read_meta(path) == {}


def test_huge_grid_horizon_is_refused_before_allocating(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("day,row,col,value\n9007199254740992,0,0,1.0\n")
    with pytest.raises(SchemaError, match=r"grid\.csv: 9007199254740992 days of a 2x3 grid exceed"):
        pio.load_grid(path, SPEC)


# --- the joins on generated tables ---------------------------------------

IDS = ["a01", "b02", "ü-3", "日本", 'q"t', "c,d", "e\nf", "g\x00"]
ids_of = st.lists(st.sampled_from(IDS), unique=True, min_size=1, max_size=5)
record_keys = st.lists(st.tuples(st.sampled_from(IDS), st.integers(1, 4)), unique=True, max_size=16)
JOIN = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _predictive(keys, both=None):
    n = len(keys)
    both = np.ones(n, dtype=bool) if both is None else np.asarray(both, dtype=bool)
    return PredictiveTable(
        ids=np.asarray([k[0] for k in keys], dtype=object), day=np.asarray([k[1] for k in keys], dtype=np.int64),
        mu=np.zeros((n, 2)), var=np.ones((n, 2)), available=np.column_stack([np.ones(n, dtype=bool), both]),
    )


@JOIN
@given(record_keys, record_keys, st.lists(st.floats(0.0, 100.0), min_size=16, max_size=16))
def test_observed_matches_the_dict_join(workdir, obs_keys, query, y):
    obs = (np.asarray([k[0] for k in obs_keys], dtype=object), np.asarray([k[1] for k in obs_keys], dtype=np.int64),
           np.asarray(y[: len(obs_keys)]))
    path = pio.emit_obs(workdir / "obs.csv", *obs)
    inputs = _predictive(query)
    _same_outcome(_outcome(cli._observed, path, "p.csv", inputs), _outcome(dict_observed, obs, "p.csv", inputs))


@JOIN
@given(ids_of, record_keys, st.data())
def test_row_weights_match_the_dict_join(w_ids, keys, data):
    w = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(w_ids), max_size=len(w_ids))))
    inputs = _predictive(keys, data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys))))
    w_ids = np.asarray(w_ids, dtype=object)
    _same_outcome(_outcome(pipeline.row_weights, inputs, (w_ids, {"w_mean": w})),
                  _outcome(dict_row_weights, inputs, dict(zip(w_ids, w))))


@JOIN
@given(ids_of, record_keys)
def test_weight_field_site_index_matches_the_dict(site_ids, keys):
    locations = [Location(sid, float(i), 0.0) for i, sid in enumerate(site_ids)]
    inputs = _predictive(keys)
    got = _outcome(lambda: _EnsembleProblem(np.zeros(len(keys)), inputs, locations).site_idx)
    _same_outcome(got, _outcome(dict_site_index, inputs.ids, locations))


def _table(site_ids, keys):
    """A record table over the sites, keys drawn from them; None if a site has no record."""
    sites = [Location(sid, 1.0 + i, 2.0) for i, sid in enumerate(site_ids)]
    keys = [k for k in keys if k[0] in site_ids]
    site_idx = np.asarray([site_ids.index(k[0]) for k in keys], dtype=np.int64)
    if not keys:
        return None
    n = len(keys)
    return ObservationTable(sites=sites, site_idx=site_idx, day=np.asarray([k[1] for k in keys]),
                            y=np.ones(n), x_ctm=np.ones(n), x_sat=np.ones(n), z=np.zeros((n, N_COVARIATES)),
                            n_days=4)


@JOIN
@given(ids_of, st.lists(st.sampled_from(IDS), unique=True, max_size=5), record_keys)
def test_full_predictive_targets_match_the_dict(site_ids, fit_ids, keys):
    data = _table(site_ids, keys)
    if data is None:
        return
    fit_sites = [Location(sid, -1.0 - i, 0.0) for i, sid in enumerate(fit_ids)]
    seen = []

    def predict_batches(fit, locations, loc_idx, ids, batches):
        seen.append((locations, loc_idx))
        (days, *_), = batches
        n = len(days)
        return [SourcePredictions(ids=ids, day=days, mu=np.zeros(n), var=np.ones(n), available=np.ones(n, dtype=bool))]

    fit = SimpleNamespace(sites=fit_sites)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "predict_batches", predict_batches)
        pipeline._full_predictive(data, {CTM: fit, SAT: None}, np.random.SeedSequence(0).spawn(2))
    (locations, loc_idx), = seen
    want_locations, want_idx = dict_full_predictive_targets(data, fit_sites)
    assert locations == want_locations
    assert _same(loc_idx, want_idx)


@JOIN
@given(ids_of, record_keys, record_keys, st.lists(st.sampled_from(IDS), max_size=2))
def test_observation_join_matches_the_dict(site_ids, obs_keys, cov_keys, strangers):
    spec = GridSpec(0.0, 0.0, 10.0, 2, 2, CTM)
    monitors = [Location(sid, 1.0 + i, 2.0) for i, sid in enumerate(site_ids)]
    # every monitor measured, plus records at sites that may be unknown
    obs_keys = list(dict.fromkeys([(sid, 1) for sid in site_ids] + obs_keys + [(s, 4) for s in strangers]))
    ids = np.asarray([k[0] for k in obs_keys], dtype=object)
    day = np.asarray([k[1] for k in obs_keys], dtype=np.int64)
    cov = (np.asarray([k[0] for k in cov_keys], dtype=object), np.asarray([k[1] for k in cov_keys], dtype=np.int64),
           np.arange(len(cov_keys) * N_COVARIATES, dtype=float).reshape(-1, N_COVARIATES))
    ctm = (np.ones((4, 2, 2)), np.ones((4, 2, 2), dtype=bool))

    def join():
        table = pio.assemble_observations(monitors, (ids, day, np.ones(len(ids))), ctm, spec, covariates=cov)
        return table.site_idx, table.z

    _same_outcome(_outcome(join), _outcome(dict_join_observations, monitors, ids, day, cov))


# --- the CLI on edited input files ---------------------------------------


@pytest.fixture(scope="module")
def predict_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("predict")
    keys = [(sid, d) for sid in SITE_IDS for d in (1, 2)]
    table = _predictive(keys)
    table.mu[:, 1] = 1.0
    paths = {
        "monitors": pio.emit_monitors(root / "monitors.csv", SITES),
        "predictive": pio.emit_predictive(root / "predictive.csv", table),
        "weights": pio.emit_weights(root / "weights.csv", SITE_IDS, {c: np.full(len(SITES), 0.5) for c in
                                                                      pio.WEIGHTS.columns[1:]}),
    }
    return root, paths


def _predict(paths, out, env):
    argv = ["predict", "--monitors", str(paths["monitors"]), "--predictive", str(paths["predictive"]),
            "--weights", str(paths["weights"]), "--out", str(out)]
    return subprocess.run([sys.executable, "-m", "pmfusion", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("edit", ["bom", "crlf", "latin1", "repeat"])
def test_cli_predict_reads_or_refuses_edited_files(predict_inputs, pmfusion_env, tmp_path, edit):
    root, paths = predict_inputs
    want = _predict(paths, tmp_path / "want.csv", pmfusion_env)
    assert want.returncode == 0, want.stderr
    edited = dict(paths)
    name = "predictive" if edit == "repeat" else "monitors"
    text = paths[name].read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    data = {
        "bom": b"\xef\xbb\xbf" + text.encode(),
        "crlf": text.replace("\n", "\r\n").encode(),
        "latin1": text.encode("latin-1", "replace"),
        "repeat": "".join(lines[:3] + lines[1:2] + lines[3:]).encode(),
    }[edit]
    edited[name] = tmp_path / paths[name].name
    edited[name].write_bytes(data)
    got = _predict(edited, tmp_path / "got.csv", pmfusion_env)
    if edit in ("bom", "crlf"):
        assert got.returncode == 0, got.stderr
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        return
    message = {"latin1": r"monitors\.csv: not UTF-8 text", "repeat": r"predictive\.csv:4: duplicate .*first at line 2"}
    assert got.returncode == 2
    assert len(got.stderr.splitlines()) == 1 and re.match(rf"error: .*{message[edit]}", got.stderr)
