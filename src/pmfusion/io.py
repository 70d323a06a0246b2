"""CSV and JSON input/output.

Formats (exact headers):
  monitors.csv        site_id,x_km,y_km
  obs.csv             site_id,day,pm25          (pm25 may be empty = no measurement)
  grid_*.csv          day,row,col,value         (value may be empty = missing)
  covariates.csv      site_id,day,elev,forest,road,emis,wind,temp
  predictive.csv      site_id,day,source,mu,var
  weights.csv         site_id,w_mean,w_lo,w_hi,q_mean
  surface.csv         day,row,col,mean,sd,q025,q975,w
  weight_samples.csv  sample,site_id,q,tau2,rho
  evaluation.csv      method,estimation,input_derivation,n_pairs,rmse,coverage95,avg_posterior_sd,r2
  predictions.csv     site_id,day,mean,sd,q025,q975,w   (written by `pmfusion predict`)

Each format is one CsvFormat, read by read_csv and written by write_csv.
Every emitted file ends with a "# key=value ..." comment line carrying at
least the seed and config hash; loaders skip any line starting with '#'.
Missing values are written as empty fields, and absent grid rows also mean
missing. Parse failures report the 1-based line number of the offending row;
header mismatches name the column.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import InputFileError, OutOfDomainError, ParseError, SchemaError
from .geo import GridSpec, Location
from .tables import COVARIATE_NAMES, N_COVARIATES, SOURCE_COLUMNS, ObservationTable, PredictiveTable


@dataclass(frozen=True)
class CsvFormat:
    """The exact header of one file format and the kind of each column.

    Kinds: 's' non-empty text, 'i' integer, 'f' finite number, 'p' positive
    finite number, 'm' finite number or empty (missing, read as NaN).
    """

    columns: tuple
    kinds: str


MONITORS = CsvFormat(("site_id", "x_km", "y_km"), "sff")
OBS = CsvFormat(("site_id", "day", "pm25"), "sim")
GRID = CsvFormat(("day", "row", "col", "value"), "iiim")
COVARIATES = CsvFormat(("site_id", "day", *COVARIATE_NAMES), "si" + "f" * N_COVARIATES)
PREDICTIVE = CsvFormat(("site_id", "day", "source", "mu", "var"), "sisfp")
WEIGHTS = CsvFormat(("site_id", "w_mean", "w_lo", "w_hi", "q_mean"), "sffff")
SURFACE = CsvFormat(("day", "row", "col", "mean", "sd", "q025", "q975", "w"), "iiifffff")
WEIGHT_SAMPLES = CsvFormat(("sample", "site_id", "q", "tau2", "rho"), "isfpp")
EVALUATION = CsvFormat(
    ("method", "estimation", "input_derivation", "n_pairs", "rmse", "coverage95", "avg_posterior_sd", "r2"),
    "sssifffm",
)
PREDICTIONS = CsvFormat(("site_id", "day", "mean", "sd", "q025", "q975", "w"), "sifffff")

# an empty (missing) cell of an 'm' column is read as this text, NaN
_MISSING = {"": "nan"}
# rows formatted per write; bounds the strings held at once
_WRITE_CHUNK = 4096
# cells of the largest dense (day, row, col) grid loaded; bounds the allocation
_MAX_GRID_CELLS = 2**27


def config_hash(obj) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _open_input(path, newline=None):
    """An input file opened for reading, a leading byte-order mark dropped;
    one that cannot be opened is an InputFileError naming it."""
    try:
        return open(path, encoding="utf-8-sig", newline=newline)
    except OSError as e:
        raise InputFileError(f"{path}: cannot read input file ({e.strerror})") from None


def read_meta(path) -> dict:
    """Parse key=value pairs out of a file's comment lines."""
    out = {}
    with _open_input(path) as f:
        for line in f:
            if line.startswith("#"):
                for part in line[1:].split():
                    if "=" in part:
                        k, _, v = part.partition("=")
                        out[k] = v
    return out


def _cell(text: str, kind: str, path, line: int, column: str) -> None:
    """ParseError at file:line if the cell fails its column kind's check."""
    value = text.strip()
    if kind == "s" or not value:
        if value or kind == "m":
            return
        raise ParseError(f"{path}:{line}: empty value in column '{column}'")
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"{path}:{line}: non-numeric value '{value}' in column '{column}'") from None
    if not math.isfinite(number):
        # an empty field is the one spelling of "missing"
        raise ParseError(f"{path}:{line}: non-finite value '{value}' in column '{column}'")
    if kind == "p" and number <= 0:
        raise ParseError(f"{path}:{line}: non-positive value '{number!r}' in column '{column}'")
    # past 2**53 a float no longer holds every integer
    if kind == "i" and (not number.is_integer() or abs(number) > 2**53):
        raise ParseError(f"{path}:{line}: column '{column}' must be an integer, got '{text}'")


def _column(texts: list[str], kind: str) -> np.ndarray | None:
    """One column's cells as an array, converted in C (see read_csv); None
    if any cell fails the check of its kind."""
    if kind == "s":
        values = list(map(str.strip, texts))
        return None if "" in values else np.asarray(values, dtype=object)
    n_missing = 0
    if kind == "m":
        texts = list(map(str.strip, texts))
        n_missing = texts.count("")
        texts = map(_MISSING.get, texts, texts)
    try:
        values = np.array(list(map(float, texts)), dtype=float)
    except ValueError:
        return None
    # every missing cell reads as NaN, so any further non-finite value is a bad cell
    if values.size - np.count_nonzero(np.isfinite(values)) != n_missing:
        return None
    if kind == "p" and not (values > 0).all():
        return None
    if kind == "i":
        if not ((values == np.trunc(values)) & (np.abs(values) <= 2**53)).all():
            return None
        return values.astype(np.int64)
    return values


def _first_bad_cell(texts: list[str], kind: str, path, lines: list[int], column: str) -> tuple[int, ParseError]:
    """The row of a column's first bad cell and the ParseError it raises."""
    for k, text in enumerate(texts):
        try:
            _cell(text, kind, path, lines[k], column)
        except ParseError as e:
            return k, e


def read_csv(path, fmt: CsvFormat) -> tuple[list[int], list[np.ndarray]]:
    """Rows of a file in the given format; comment ('#') and blank lines are skipped.

    Returns the line number of each row and one array per column: object
    (str) for 's', int64 for 'i', float for 'f', 'p' and 'm' (NaN where an
    'm' cell is empty). Raises SchemaError for a wrong header and ParseError at
    file:line for a row with the wrong field count or a bad cell: the first
    in file order, as if the cells were checked one by one. The rows are
    gathered in one pass and then converted a column at a time.
    """
    path = Path(path)
    expected = fmt.columns
    lines: list[int] = []
    # the cells of the data rows, row after row
    cells: list[str] = []
    header = None
    # a malformed row or undecodable text ends the pass; it is raised only
    # if no row above it holds a bad cell
    stop = None
    with _open_input(path, newline="") as f:
        reader = csv.reader(f)
        try:
            for rec in reader:
                if not rec or rec[0].startswith("#"):
                    continue
                line = reader.line_num
                if header is None:
                    header = [c.strip() for c in rec]
                    for col in expected:
                        if col not in header:
                            raise SchemaError(f"{path}: missing column '{col}' in header (line {line})")
                    if tuple(header) != expected:
                        raise SchemaError(
                            f"{path}: header must be exactly '{','.join(expected)}', got '{','.join(header)}'"
                        )
                    continue
                if len(rec) != len(expected):
                    stop = ParseError(f"{path}:{line}: expected {len(expected)} fields, got {len(rec)}")
                    break
                cells += rec
                lines.append(line)
        except csv.Error as e:
            stop = ParseError(f"{path}:{reader.line_num}: {e}")
        except UnicodeDecodeError as e:
            stop = ParseError(f"{path}: not UTF-8 text ({e.reason})")
    if header is None:
        raise stop or SchemaError(f"{path}: empty file, expected header {','.join(expected)}")
    n = len(expected)
    arrays, bad = [], None
    for j, (kind, column) in enumerate(zip(fmt.kinds, expected)):
        texts = cells[j::n]
        # each column's text is freed once it is converted
        cells[j::n] = [None] * len(lines)
        values = _column(texts, kind)
        if values is None:
            k, error = _first_bad_cell(texts, kind, path, lines, column)
            if bad is None or k < bad[0]:
                bad = (k, error)
        arrays.append(values)
    if bad is not None:
        raise bad[1]
    if stop is not None:
        raise stop
    return lines, arrays


def key_index(*columns) -> tuple[np.ndarray, np.ndarray]:
    """The record-key index of rows keyed by one or more array columns (text or integer).

    Returns (code, first): code numbers each row's key densely in first-seen
    order (int64; the first row's key is 0, the next new key 1, and so on),
    and first[c] is the row where key c first appears. The keys are unique
    exactly when first has one entry per row.
    """
    n = len(columns[0])
    code = np.zeros(n, dtype=np.int64)
    for col in columns:
        values = col.tolist()
        # hashed, not sorted: numpy sorts text several times slower than this
        number = dict(zip(dict.fromkeys(values), range(n)))
        # both factors stay below n, so the product cannot overflow
        code = code * n + np.fromiter(map(number.__getitem__, values), np.int64, n)
        _, first, code = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    # the inverse permutation ranks each sorted key by its first row
    return np.argsort(order)[code], first[order]


def key_rows(table, query) -> np.ndarray:
    """The row of table holding each query key (its first such row), -1 where
    absent; table and query are tuples of key columns of the same kinds."""
    n = len(table[0])
    code, first = key_index(*(np.concatenate((t, q)) for t, q in zip(table, query)))
    # the table's rows come first, so a key first seen past them is absent
    return np.where(first < n, first, -1)[code[n:]]


def _refuse_repeats(path, lines, columns, name: str) -> None:
    """ParseError at the first row whose key (one value per column) repeats
    an earlier row's; a later row silently replacing an earlier one would
    hide the defect."""
    code, first = key_index(*columns)
    if first.size == code.size:
        return
    # every row before the first repeat brings a new key, numbered by its row
    k = int(np.argmax(code != np.arange(code.size)))
    key = tuple(c.item(k) for c in columns)
    key = key if len(key) > 1 else key[0]
    raise ParseError(f"{path}:{lines[k]}: duplicate {name} {key!r}, first at line {lines[first[code[k]]]}")


def _quote(text: str) -> str:
    """A text cell, quoted (its quotes doubled) if it holds , " or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format(kind: str, values) -> list[str]:
    if kind == "s":
        return [_quote(str(v)) for v in values]
    if kind == "i":
        return list(map(str, np.asarray(values).astype(np.int64).tolist()))
    # repr round-trips every float; NaN or None is an empty field
    return ["" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()]


def write_csv(path, fmt: CsvFormat, columns, meta: dict | None = None) -> Path:
    """Write one row per position of the columns (one sequence per header
    column), then, for a non-empty meta, one '# key=value ...' line. A text
    value starting with '#', which reads back as a comment, is a SchemaError.
    Only text cells can need quotes, as with csv's QUOTE_MINIMAL."""
    path = Path(path)
    for kind, column, values in zip(fmt.kinds, fmt.columns, columns):
        if kind == "s" and any(str(v).startswith("#") for v in values):
            raise SchemaError(f"{path}: a value in column '{column}' starts with '#'")
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(fmt.columns) + "\n")
        for start in range(0, n, _WRITE_CHUNK):
            stop = start + _WRITE_CHUNK
            cells = zip(*(_format(k, c[start:stop]) for k, c in zip(fmt.kinds, columns)))
            f.write("\n".join(map(",".join, cells)) + "\n")
        if meta:
            f.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    return path


def emit_monitors(path, locations: list[Location], meta: dict | None = None):
    columns = ([l.site_id for l in locations], [l.x_km for l in locations], [l.y_km for l in locations])
    return write_csv(path, MONITORS, columns, meta)


def load_monitors(path) -> list[Location]:
    """Monitor locations in file order; a repeated site_id is a ParseError."""
    lines, (ids, x, y) = read_csv(path, MONITORS)
    _refuse_repeats(path, lines, (ids,), "site_id")
    return [Location(*row) for row in zip(ids.tolist(), x.tolist(), y.tolist())]


def emit_obs(path, ids, day, pm25, meta: dict | None = None):
    return write_csv(path, OBS, (ids, day, pm25), meta)


def load_obs(path, n_days: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observation rows; records with an empty pm25 field are dropped.

    Raises ParseError at a kept row that repeats a (site_id, day), OutOfDomainError at a day outside 1..n_days.
    """
    lines, (ids, day, y) = read_csv(path, OBS)
    outside = np.zeros(day.size, dtype=bool) if n_days is None else (day < 1) | (day > n_days)
    if outside.any():
        k = int(outside.argmax())
        raise OutOfDomainError(f"{path}:{lines[k]}: day {day.item(k)} outside the horizon 1..{n_days}")
    keep = ~np.isnan(y)
    ids, day, y = ids[keep], day[keep], y[keep]
    _refuse_repeats(path, np.asarray(lines)[keep].tolist(), (ids, day), "(site_id, day)")
    return ids, day, y


def emit_grid(path, values: np.ndarray, present: np.ndarray | None = None, meta: dict | None = None):
    """values is (n_days, rows, cols); rows are written for present cells only."""
    if present is None:
        present = np.isfinite(values)
    d, i, j = np.nonzero(present)
    return write_csv(path, GRID, (d + 1, i, j, values[d, i, j]), meta)


def load_grid(path, spec: GridSpec, n_days: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values, present) with shape (n_days, rows, cols); absent rows
    and empty value fields both mean missing. A repeated (day, row, col) is
    a ParseError."""
    lines, (day, row, col, value) = read_csv(path, GRID)
    _refuse_repeats(path, lines, (day, row, col), "(day, row, col)")
    bad = (day < 1) | (row < 0) | (row >= spec.n_rows) | (col < 0) | (col >= spec.n_cols)
    if bad.any():
        k = int(bad.argmax())
        if day[k] < 1:
            raise ParseError(f"{path}:{lines[k]}: day must be >= 1")
        raise ParseError(
            f"{path}:{lines[k]}: cell ({row[k]}, {col[k]}) outside {spec.n_rows}x{spec.n_cols} grid"
        )
    t = n_days if n_days is not None else int(day.max(initial=0))
    beyond = day > t
    if beyond.any():
        k = int(beyond.argmax())
        raise SchemaError(f"{path}:{lines[k]}: day {day.item(k)} beyond horizon {t}")
    if t * spec.n_rows * spec.n_cols > _MAX_GRID_CELLS:
        raise SchemaError(f"{path}: {t} days of a {spec.n_rows}x{spec.n_cols} grid exceed {_MAX_GRID_CELLS} cells")
    values = np.full((t, spec.n_rows, spec.n_cols), np.nan)
    values[day - 1, row, col] = value
    return values, np.isfinite(values)


def emit_covariates(path, ids, day, z: np.ndarray, meta: dict | None = None):
    return write_csv(path, COVARIATES, (ids, day, *np.asarray(z).T), meta)


def load_covariates(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariate rows; a repeated (site_id, day) is a ParseError."""
    lines, (ids, day, *z) = read_csv(path, COVARIATES)
    _refuse_repeats(path, lines, (ids, day), "(site_id, day)")
    return ids, day, np.column_stack(z)


def emit_predictive(path, table: PredictiveTable, meta: dict | None = None):
    """One row per available (record, source), all CTM rows first."""
    k, n = np.nonzero(table.available.T)
    source = np.asarray(SOURCE_COLUMNS, dtype=object)[k]
    columns = (table.ids[n], table.day[n], source, table.mu[n, k], table.var[n, k])
    return write_csv(path, PREDICTIVE, columns, meta)


def load_predictive(path, locations: dict[str, Location]) -> PredictiveTable:
    """Rows joined into one record per (site_id, day), in first-seen order.

    Raises SchemaError for a site not in locations, and ParseError for an
    unknown source, a non-positive var or a repeated (site_id, day, source).
    """
    lines, (ids, day, source, mu, var) = read_csv(path, PREDICTIVE)
    _refuse_repeats(path, lines, (ids, day, source), "(site_id, day, source)")
    known = key_rows((np.asarray(list(locations), dtype=object),), (ids,)) >= 0
    col = key_rows((np.asarray(SOURCE_COLUMNS, dtype=object),), (source,))
    bad = ~known | (col < 0)
    if bad.any():
        i = int(bad.argmax())
        if not known[i]:
            raise SchemaError(f"{path}:{lines[i]}: unknown site_id '{ids[i]}'")
        raise ParseError(f"{path}:{lines[i]}: unknown source '{source[i]}'")
    # one record per (site_id, day), in first-seen order
    row, first = key_index(ids, day)
    table_mu, table_var, avail = np.zeros((first.size, 2)), np.ones((first.size, 2)), np.zeros((first.size, 2), bool)
    table_mu[row, col] = mu
    table_var[row, col] = var
    avail[row, col] = True
    return PredictiveTable(ids[first], day[first], table_mu, table_var, avail, dict(locations))


def emit_weights(path, site_ids, summary: dict[str, np.ndarray], meta: dict | None = None):
    return write_csv(path, WEIGHTS, (site_ids, *(summary[c] for c in WEIGHTS.columns[1:])), meta)


def load_weights(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Site weight summaries; a repeated site_id is a ParseError."""
    lines, (ids, *cols) = read_csv(path, WEIGHTS)
    _refuse_repeats(path, lines, (ids,), "site_id")
    return ids, dict(zip(WEIGHTS.columns[1:], cols))


def emit_weight_samples(path, field, meta: dict | None = None):
    """Full (q, tau2, rho) sample set, one row per (sample, site)."""
    n, s = field.q.shape
    columns = (
        np.repeat(np.arange(n), s),
        np.tile(np.asarray(field.site_ids, dtype=object), n),
        field.q.ravel(),
        np.repeat(field.tau2, s),
        np.repeat(field.rho, s),
    )
    return write_csv(path, WEIGHT_SAMPLES, columns, meta)


def load_weight_samples(path, locations: list[Location]):
    """The sample grid, sites in first-seen order; every (sample, site) needs
    exactly one row, and a tau2 or rho <= 0 is a ParseError at its line."""
    from .ensemble import WeightFieldSamples

    lines, (sample, ids, q_col, tau2_col, rho_col) = read_csv(path, WEIGHT_SAMPLES)
    _refuse_repeats(path, lines, (sample, ids), "(sample, site_id)")
    loc = key_rows((np.asarray([l.site_id for l in locations], dtype=object),), (ids,))
    if (loc < 0).any():
        i = int(np.argmax(loc < 0))
        raise SchemaError(f"{path}:{lines[i]}: unknown site_id '{ids[i]}'")
    if not lines:
        raise SchemaError(f"{path}: no sample rows")
    if sample.min() < 0:
        raise ParseError(f"{path}:{lines[int(sample.argmin())]}: sample must be >= 0")
    s, first = key_index(ids)
    n_samples, n_sites = int(sample.max()) + 1, first.size
    # the (sample, site) keys are distinct, so they fill the grid exactly when
    # there are as many as cells; checked before the grid is allocated
    if n_samples * n_sites != len(lines):
        raise SchemaError(f"{path}: incomplete sample grid (missing site rows)")
    q = np.empty((n_samples, n_sites))
    tau2, rho = np.empty(n_samples), np.empty(n_samples)
    q[sample, s] = q_col
    tau2[sample] = tau2_col
    rho[sample] = rho_col
    return WeightFieldSamples(
        locations=[locations[i] for i in loc[first]],
        q=q,
        tau2=tau2,
        rho=rho,
        t_s=np.zeros(n_sites, dtype=np.int64),
        acceptance={},
    )


@dataclass
class SurfaceOutput:
    """Combined predictive surface: per (day, cell) summary plus weight used."""

    day: np.ndarray
    row: np.ndarray
    col: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q975: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = self.day.shape[0]
        for name in ("row", "col", "mean", "sd", "q025", "q975", "w"):
            if getattr(self, name).shape[0] != n:
                raise SchemaError("surface columns must share one length")
        if np.any(self.q025 > self.q975):
            raise SchemaError("quantiles out of order")
        if np.any((self.w < 0) | (self.w > 1)):
            raise SchemaError("weights must lie in [0, 1]")

    @property
    def n_cells(self) -> int:
        return self.day.shape[0]


def emit_surface(path, surface: SurfaceOutput, meta: dict | None = None):
    return write_csv(path, SURFACE, [getattr(surface, c) for c in SURFACE.columns], meta)


def load_surface(path) -> SurfaceOutput:
    """A surface file; SurfaceOutput's checks fail naming the file."""
    _, cols = read_csv(path, SURFACE)
    try:
        return SurfaceOutput(*cols)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from None


def emit_evaluation(path, reports: list, meta: dict | None = None):
    return write_csv(path, EVALUATION, [[getattr(r, c) for r in reports] for c in EVALUATION.columns], meta)


def load_evaluation(path) -> list:
    from .crossval import EvalReport

    _, cols = read_csv(path, EVALUATION)
    return [EvalReport(**dict(zip(EVALUATION.columns, row))) for row in zip(*(c.tolist() for c in cols))]


def save_json(path, obj: dict):
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    return path


def load_json(path) -> dict:
    with _open_input(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from None


def load_inputs(
    monitors, obs, grid_ctm, ctm_spec: GridSpec, grid_sat=None, sat_spec: GridSpec | None = None,
    covariates=None, n_days: int | None = None,
) -> tuple[ObservationTable, tuple, tuple | None]:
    """Load the input files of one run and join them into one record table.

    The satellite grid and the covariates are optional paths. n_days
    defaults to the last observed day. Returns (table, ctm, sat), the grids
    as load_grid gives them and sat None without a satellite grid.
    """
    locations = load_monitors(monitors)
    records = load_obs(obs, n_days)
    if n_days is None and records[1].size:
        n_days = int(records[1].max())
    ctm = load_grid(grid_ctm, ctm_spec, n_days)
    sat = load_grid(grid_sat, sat_spec, n_days) if grid_sat else None
    cov = load_covariates(covariates) if covariates else None
    table = assemble_observations(locations, records, ctm, ctm_spec, sat, sat_spec, cov, n_days)
    return table, ctm, sat


def assemble_observations(
    monitors: list[Location],
    obs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ctm: tuple[np.ndarray, np.ndarray],
    ctm_spec: GridSpec,
    sat: tuple[np.ndarray, np.ndarray] | None = None,
    sat_spec: GridSpec | None = None,
    covariates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    n_days: int | None = None,
) -> ObservationTable:
    """Join monitors, observations, linked grid values, and covariates into
    one record table. Every monitor needs at least one observation and CTM
    values must exist for every observation; satellite and covariates are
    optional (missing satellite becomes NaN, missing covariate table becomes
    zeros)."""
    from .geo import link_points

    ids, day, y = obs
    site_idx = key_rows((np.asarray([l.site_id for l in monitors], dtype=object),), (ids,))
    if (site_idx < 0).any():
        raise SchemaError(f"observation references unknown site_id '{ids[np.argmax(site_idx < 0)]}'")
    unmeasured = np.flatnonzero(np.bincount(site_idx, minlength=len(monitors)) == 0)
    if unmeasured.size:
        names = ", ".join(monitors[k].site_id for k in unmeasured)
        raise SchemaError(f"monitors with no measured day: {names}")
    horizon = int(n_days if n_days is not None else (day.max() if day.size else 2))
    horizon = max(horizon, 2)

    cells_ctm = link_points(monitors, ctm_spec)
    rc = cells_ctm[site_idx]
    x_ctm = ctm[0][day - 1, rc[:, 0], rc[:, 1]]
    if np.isnan(x_ctm).any():
        bad = int(np.flatnonzero(np.isnan(x_ctm))[0])
        raise SchemaError(
            f"no ctm grid value for site '{ids[bad]}' day {int(day[bad])}"
        )

    if sat is not None and sat_spec is not None:
        cells_sat = link_points(monitors, sat_spec)
        rs = cells_sat[site_idx]
        x_sat = sat[0][day - 1, rs[:, 0], rs[:, 1]]
    else:
        x_sat = np.full(ids.shape[0], np.nan)

    z = np.zeros((ids.shape[0], N_COVARIATES))
    if covariates is not None:
        cov_ids, cov_day, z_all = covariates
        if key_index(cov_ids, cov_day)[1].size < len(cov_ids):
            raise SchemaError("covariates repeat a (site_id, day) row")
        row = key_rows((cov_ids, cov_day), (ids, day))
        if (row < 0).any():
            i = int(np.argmax(row < 0))
            raise SchemaError(f"no covariate row for site '{ids[i]}' day {int(day[i])}")
        z = np.asarray(z_all, dtype=float)[row]

    return ObservationTable(
        sites=list(monitors),
        site_idx=site_idx,
        day=np.asarray(day, dtype=np.int64),
        y=np.asarray(y, dtype=float),
        x_ctm=x_ctm,
        x_sat=x_sat,
        z=z,
        n_days=horizon,
    )


def grid_spec_to_dict(spec: GridSpec) -> dict:
    return asdict(spec)


# GridSpec's keys in its JSON form, with the type each value must have
_GRID_FIELDS = {"origin_x": Real, "origin_y": Real, "cell_km": Real, "n_rows": Integral, "n_cols": Integral,
                "source_tag": str}
_TYPE_NAMES = {Real: "a number", Integral: "an integer", str: "a string"}


def grid_spec_from_dict(d: dict) -> GridSpec:
    """GridSpec from its JSON form, an object with exactly GridSpec's keys;
    a grid of more than _MAX_GRID_CELLS cells is refused before anything is
    allocated for it. A missing, unknown or malformed field is a SchemaError."""
    if not isinstance(d, dict):
        raise SchemaError(f"a grid must be a JSON object, got {d!r}")
    unknown = sorted(set(d).difference(_GRID_FIELDS))
    if unknown:
        raise SchemaError(f"unknown key '{unknown[0]}'")
    for key, kind in _GRID_FIELDS.items():
        if key not in d:
            raise SchemaError(f"missing key '{key}'")
        if isinstance(d[key], bool) or not isinstance(d[key], kind):
            raise SchemaError(f"{key} must be {_TYPE_NAMES[kind]}, got {d[key]!r}")
    rows, cols = d["n_rows"], d["n_cols"]
    if min(rows, cols) >= 1 and rows * cols > _MAX_GRID_CELLS:
        raise SchemaError(f"a {rows}x{cols} grid exceeds {_MAX_GRID_CELLS} cells")
    try:
        return GridSpec(float(d["origin_x"]), float(d["origin_y"]), float(d["cell_km"]), rows, cols, d["source_tag"])
    except (OverflowError, ValueError) as e:
        raise SchemaError(str(e)) from None


def export_scene(truth, out_dir, grid_days: list[int] | None = None) -> dict[str, Path]:
    """Write a generated scene as CLI-ready input files plus truth tables.

    Grid files always cover the monitor-linked cells on every day; full grids
    are written only for the days in grid_days (all days when None) to keep
    large scenes on disk manageable.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = truth.config
    meta = {"seed": cfg.seed, "config": scene_hash(cfg)}
    obs = truth.obs
    ids = obs.record_ids

    t = cfg.n_days
    full_days = set(range(1, t + 1)) if grid_days is None else {int(d) for d in grid_days}
    keep_ctm = _grid_export_mask(truth.ctm_values.shape, truth.site_cell_ctm, full_days)
    keep_sat = _grid_export_mask(truth.sat_values.shape, truth.site_cell_sat, full_days)
    keep_sat &= truth.sat_present

    paths = {
        "monitors": emit_monitors(out_dir / "monitors.csv", truth.sites, meta),
        "obs": emit_obs(out_dir / "obs.csv", ids, obs.day, obs.y, meta),
        "covariates": emit_covariates(out_dir / "covariates.csv", ids, obs.day, obs.z, meta),
        "grid_ctm": emit_grid(out_dir / "grid_ctm.csv", truth.ctm_values, keep_ctm, meta),
        "grid_sat": emit_grid(out_dir / "grid_sat.csv", truth.sat_values, keep_sat, meta),
        "truth_weights": emit_weights(
            out_dir / "truth_weights.csv",
            [s.site_id for s in truth.sites],
            {"w_mean": truth.w, "w_lo": truth.w, "w_hi": truth.w, "q_mean": truth.q},
            meta,
        ),
        "scene": save_json(
            out_dir / "scene.json",
            {
                "n_sites": cfg.n_sites,
                "n_days": cfg.n_days,
                "seed": cfg.seed,
                "config": scene_hash(cfg),
                "ctm_grid": grid_spec_to_dict(cfg.ctm_grid),
                "sat_grid": grid_spec_to_dict(cfg.sat_grid),
            },
        ),
    }
    return paths


def scene_hash(cfg) -> str:
    return config_hash(asdict(cfg))


def _grid_export_mask(shape, site_cells: np.ndarray, full_days: set) -> np.ndarray:
    keep = np.zeros(shape, dtype=bool)
    keep[[d - 1 for d in full_days if 1 <= d <= shape[0]]] = True
    keep[:, site_cells[:, 0], site_cells[:, 1]] = True
    return keep
