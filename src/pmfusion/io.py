"""CSV and JSON input/output.

Formats (exact headers):
  monitors.csv    site_id,x_km,y_km
  obs.csv         site_id,day,pm25
  grid_*.csv      day,row,col,value          (value may be empty = missing)
  covariates.csv  site_id,day,elev,forest,road,emis,wind,temp
  predictive.csv  site_id,day,source,mu,var
  weights.csv     site_id,w_mean,w_lo,w_hi,q_mean
  surface.csv     day,row,col,mean,sd,q025,q975,w
  weight_samples.csv  sample,site_id,q,tau2,rho
  evaluation.csv  method,estimation,input_derivation,n_pairs,rmse,coverage95,avg_posterior_sd,r2

Every emitted file ends with a "# key=value ..." comment line carrying at
least the seed and config hash; loaders skip any line starting with '#'.
Missing values are written as empty fields, and absent grid rows also mean
missing. Parse failures report the 1-based line number of the offending row;
header mismatches name the column.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError
from .geo import GridSpec, Location
from .tables import COVARIATE_NAMES, N_COVARIATES, ObservationTable, PredictiveTable

MONITOR_COLUMNS = ("site_id", "x_km", "y_km")
OBS_COLUMNS = ("site_id", "day", "pm25")
GRID_COLUMNS = ("day", "row", "col", "value")
COVARIATE_COLUMNS = ("site_id", "day") + COVARIATE_NAMES
PREDICTIVE_COLUMNS = ("site_id", "day", "source", "mu", "var")
WEIGHT_COLUMNS = ("site_id", "w_mean", "w_lo", "w_hi", "q_mean")
SURFACE_COLUMNS = ("day", "row", "col", "mean", "sd", "q025", "q975", "w")
WEIGHT_SAMPLE_COLUMNS = ("sample", "site_id", "q", "tau2", "rho")
EVAL_COLUMNS = (
    "method",
    "estimation",
    "input_derivation",
    "n_pairs",
    "rmse",
    "coverage95",
    "avg_posterior_sd",
    "r2",
)


def config_hash(obj) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _meta_line(meta: dict | None) -> str:
    if not meta:
        return ""
    parts = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"# {parts}\n"


def read_meta(path) -> dict:
    """Parse key=value pairs out of a file's comment lines."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                for part in line[1:].split():
                    if "=" in part:
                        k, _, v = part.partition("=")
                        out[k] = v
    return out


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return repr(x)


def _write_csv(path, header: tuple, rows, meta: dict | None):
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")
        f.write(_meta_line(meta))
    return path


class _Reader:
    """CSV rows with original line numbers; comments and blanks skipped."""

    def __init__(self, path, expected: tuple):
        self.path = Path(path)
        self.expected = expected
        with open(self.path, encoding="utf-8") as f:
            raw = f.read()
        self.rows: list[tuple[int, list[str]]] = []
        header = None
        header_line = 0
        for lineno, rec in zip(
            _line_numbers(raw), csv.reader(_io.StringIO(raw))
        ):
            if not rec or (rec[0].startswith("#")):
                continue
            if header is None:
                header = [c.strip() for c in rec]
                header_line = lineno
                continue
            self.rows.append((lineno, rec))
        if header is None:
            raise SchemaError(f"{self.path}: empty file, expected header {','.join(expected)}")
        for col in expected:
            if col not in header:
                raise SchemaError(f"{self.path}: missing column '{col}' in header (line {header_line})")
        if tuple(header) != tuple(expected):
            raise SchemaError(
                f"{self.path}: header must be exactly '{','.join(expected)}', got '{','.join(header)}'"
            )

    def floats(self, lineno: int, rec: list[str], col: int, allow_empty=False) -> float:
        if len(rec) != len(self.expected):
            raise ParseError(
                f"{self.path}:{lineno}: expected {len(self.expected)} fields, got {len(rec)}"
            )
        text = rec[col].strip()
        if text == "":
            if allow_empty:
                return np.nan
            raise ParseError(
                f"{self.path}:{lineno}: empty value in column '{self.expected[col]}'"
            )
        try:
            value = float(text)
        except ValueError:
            raise ParseError(
                f"{self.path}:{lineno}: non-numeric value '{text}' in column '{self.expected[col]}'"
            ) from None
        if not math.isfinite(value):
            # an empty field is the one spelling of "missing"
            raise ParseError(
                f"{self.path}:{lineno}: non-finite value '{text}' in column '{self.expected[col]}'"
            )
        return value

    def ints(self, lineno: int, rec: list[str], col: int) -> int:
        val = self.floats(lineno, rec, col)
        if not float(val).is_integer():
            raise ParseError(
                f"{self.path}:{lineno}: column '{self.expected[col]}' must be an integer, got '{rec[col]}'"
            )
        return int(val)

    def text(self, lineno: int, rec: list[str], col: int) -> str:
        if len(rec) != len(self.expected):
            raise ParseError(
                f"{self.path}:{lineno}: expected {len(self.expected)} fields, got {len(rec)}"
            )
        value = rec[col].strip()
        if not value:
            raise ParseError(
                f"{self.path}:{lineno}: empty value in column '{self.expected[col]}'"
            )
        return value


def _line_numbers(raw: str):
    n = 1
    for _ in raw.splitlines():
        yield n
        n += 1


# ---------------------------------------------------------------- monitors


def emit_monitors(path, locations: list[Location], meta: dict | None = None):
    rows = ([l.site_id, _fmt(l.x_km), _fmt(l.y_km)] for l in locations)
    return _write_csv(path, MONITOR_COLUMNS, rows, meta)


def load_monitors(path) -> list[Location]:
    r = _Reader(path, MONITOR_COLUMNS)
    out = []
    seen = set()
    for lineno, rec in r.rows:
        sid = r.text(lineno, rec, 0)
        if sid in seen:
            raise ParseError(f"{r.path}:{lineno}: duplicate site_id '{sid}'")
        seen.add(sid)
        out.append(Location(sid, r.floats(lineno, rec, 1), r.floats(lineno, rec, 2)))
    return out


# ---------------------------------------------------------------- obs


def emit_obs(path, ids, day, pm25, meta: dict | None = None):
    rows = (
        [str(i), str(int(d)), _fmt(v)] for i, d, v in zip(ids, day, pm25)
    )
    return _write_csv(path, OBS_COLUMNS, rows, meta)


def load_obs(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observation rows; records with an empty pm25 field are dropped.

    Raises SchemaError at a kept row that repeats a (site_id, day).
    """
    r = _Reader(path, OBS_COLUMNS)
    ids, day, y = [], [], []
    line_of = {}
    for lineno, rec in r.rows:
        value = r.floats(lineno, rec, 2, allow_empty=True)
        if np.isnan(value):
            continue
        key = (r.text(lineno, rec, 0), r.ints(lineno, rec, 1))
        if key in line_of:
            raise SchemaError(
                f"{r.path}:{lineno}: (site_id, day) {key} repeats line {line_of[key]}"
            )
        line_of[key] = lineno
        ids.append(key[0])
        day.append(key[1])
        y.append(value)
    return (
        np.asarray(ids, dtype=object),
        np.asarray(day, dtype=np.int64),
        np.asarray(y, dtype=float),
    )


# ---------------------------------------------------------------- grids


def emit_grid(path, values: np.ndarray, present: np.ndarray | None = None, meta: dict | None = None):
    """values is (n_days, rows, cols); rows are written for present cells only."""
    t, nr, nc = values.shape
    if present is None:
        present = np.isfinite(values)

    def rows():
        for d in range(t):
            rr, cc = np.nonzero(present[d])
            vals = values[d]
            for i, j in zip(rr, cc):
                yield [str(d + 1), str(i), str(j), _fmt(vals[i, j])]

    return _write_csv(path, GRID_COLUMNS, rows(), meta)


def load_grid(path, spec: GridSpec, n_days: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values, present) with shape (n_days, rows, cols); absent rows
    and empty value fields both mean missing."""
    r = _Reader(path, GRID_COLUMNS)
    parsed = []
    max_day = 0
    for lineno, rec in r.rows:
        d = r.ints(lineno, rec, 0)
        i = r.ints(lineno, rec, 1)
        j = r.ints(lineno, rec, 2)
        v = r.floats(lineno, rec, 3, allow_empty=True)
        if d < 1:
            raise ParseError(f"{r.path}:{lineno}: day must be >= 1")
        if not (0 <= i < spec.n_rows and 0 <= j < spec.n_cols):
            raise ParseError(
                f"{r.path}:{lineno}: cell ({i}, {j}) outside {spec.n_rows}x{spec.n_cols} grid"
            )
        max_day = max(max_day, d)
        parsed.append((d, i, j, v))
    t = n_days if n_days is not None else max_day
    if max_day > t:
        raise SchemaError(f"{r.path}: contains day {max_day} beyond horizon {t}")
    values = np.full((t, spec.n_rows, spec.n_cols), np.nan)
    for d, i, j, v in parsed:
        values[d - 1, i, j] = v
    return values, np.isfinite(values)


# ---------------------------------------------------------------- covariates


def emit_covariates(path, ids, day, z: np.ndarray, meta: dict | None = None):
    rows = (
        [str(i), str(int(d))] + [_fmt(v) for v in zrow]
        for i, d, zrow in zip(ids, day, z)
    )
    return _write_csv(path, COVARIATE_COLUMNS, rows, meta)


def load_covariates(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r = _Reader(path, COVARIATE_COLUMNS)
    ids, day, z = [], [], []
    for lineno, rec in r.rows:
        ids.append(r.text(lineno, rec, 0))
        day.append(r.ints(lineno, rec, 1))
        z.append([r.floats(lineno, rec, 2 + k) for k in range(N_COVARIATES)])
    return (
        np.asarray(ids, dtype=object),
        np.asarray(day, dtype=np.int64),
        np.asarray(z, dtype=float).reshape(len(ids), N_COVARIATES),
    )


# ---------------------------------------------------------------- predictive


def emit_predictive(path, table: PredictiveTable, meta: dict | None = None):
    from .tables import SOURCE_COLUMNS

    def rows():
        for k, source in enumerate(SOURCE_COLUMNS):
            for n in range(table.ids.shape[0]):
                if table.available[n, k]:
                    yield [
                        str(table.ids[n]),
                        str(int(table.day[n])),
                        source,
                        _fmt(table.mu[n, k]),
                        _fmt(table.var[n, k]),
                    ]

    return _write_csv(path, PREDICTIVE_COLUMNS, rows(), meta)


def load_predictive(path, locations: dict[str, Location]) -> PredictiveTable:
    from .tables import SOURCE_COLUMNS

    r = _Reader(path, PREDICTIVE_COLUMNS)
    col_of = {s: k for k, s in enumerate(SOURCE_COLUMNS)}
    order: dict[tuple[str, int], int] = {}
    entries = []
    for lineno, rec in r.rows:
        sid = r.text(lineno, rec, 0)
        if sid not in locations:
            raise SchemaError(f"{r.path}:{lineno}: unknown site_id '{sid}'")
        d = r.ints(lineno, rec, 1)
        source = r.text(lineno, rec, 2)
        if source not in col_of:
            raise ParseError(f"{r.path}:{lineno}: unknown source '{source}'")
        mu = r.floats(lineno, rec, 3)
        var = r.floats(lineno, rec, 4)
        key = (sid, d)
        if key not in order:
            order[key] = len(order)
        entries.append((order[key], col_of[source], mu, var, lineno))
    n = len(order)
    mu = np.zeros((n, 2))
    var = np.ones((n, 2))
    avail = np.zeros((n, 2), dtype=bool)
    for row_i, k, m, v, lineno in entries:
        if avail[row_i, k]:
            raise ParseError(f"{r.path}:{lineno}: duplicate (site_id, day, source) row")
        mu[row_i, k] = m
        var[row_i, k] = v
        avail[row_i, k] = True
    ids = np.empty(n, dtype=object)
    day = np.zeros(n, dtype=np.int64)
    for (sid, d), row_i in order.items():
        ids[row_i] = sid
        day[row_i] = d
    return PredictiveTable(
        ids=ids, day=day, mu=mu, var=var, available=avail, locations=dict(locations)
    )


# ---------------------------------------------------------------- weights


def emit_weights(path, site_ids, summary: dict[str, np.ndarray], meta: dict | None = None):
    rows = (
        [
            str(sid),
            _fmt(summary["w_mean"][i]),
            _fmt(summary["w_lo"][i]),
            _fmt(summary["w_hi"][i]),
            _fmt(summary["q_mean"][i]),
        ]
        for i, sid in enumerate(site_ids)
    )
    return _write_csv(path, WEIGHT_COLUMNS, rows, meta)


def load_weights(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    r = _Reader(path, WEIGHT_COLUMNS)
    ids, cols = [], {name: [] for name in WEIGHT_COLUMNS[1:]}
    for lineno, rec in r.rows:
        ids.append(r.text(lineno, rec, 0))
        for c, name in enumerate(WEIGHT_COLUMNS[1:], start=1):
            cols[name].append(r.floats(lineno, rec, c))
    return np.asarray(ids, dtype=object), {k: np.asarray(v) for k, v in cols.items()}


def emit_weight_samples(path, field, meta: dict | None = None):
    """Full (q, tau2, rho) sample set, one row per (sample, site)."""
    ids = field.site_ids

    def rows():
        for n in range(len(field)):
            t2 = _fmt(field.tau2[n])
            rh = _fmt(field.rho[n])
            for s, sid in enumerate(ids):
                yield [str(n), sid, _fmt(field.q[n, s]), t2, rh]

    return _write_csv(path, WEIGHT_SAMPLE_COLUMNS, rows(), meta)


def load_weight_samples(path, locations: list[Location]):
    from .ensemble import WeightFieldSamples

    r = _Reader(path, WEIGHT_SAMPLE_COLUMNS)
    by_id = {l.site_id: l for l in locations}
    site_order: dict[str, int] = {}
    triples = []
    for lineno, rec in r.rows:
        n = r.ints(lineno, rec, 0)
        sid = r.text(lineno, rec, 1)
        if sid not in by_id:
            raise SchemaError(f"{r.path}:{lineno}: unknown site_id '{sid}'")
        if sid not in site_order:
            site_order[sid] = len(site_order)
        triples.append(
            (n, site_order[sid], r.floats(lineno, rec, 2), r.floats(lineno, rec, 3), r.floats(lineno, rec, 4))
        )
    if not triples:
        raise SchemaError(f"{r.path}: no sample rows")
    n_samples = max(t[0] for t in triples) + 1
    n_sites = len(site_order)
    q = np.full((n_samples, n_sites), np.nan)
    tau2 = np.full(n_samples, np.nan)
    rho = np.full(n_samples, np.nan)
    for n, s, qv, t2, rh in triples:
        q[n, s] = qv
        tau2[n] = t2
        rho[n] = rh
    if np.isnan(q).any() or np.isnan(tau2).any():
        raise SchemaError(f"{r.path}: incomplete sample grid (missing site rows)")
    ordered = sorted(site_order, key=site_order.get)
    return WeightFieldSamples(
        locations=[by_id[s] for s in ordered],
        q=q,
        tau2=tau2,
        rho=rho,
        t_s=np.zeros(n_sites, dtype=np.int64),
        acceptance={},
    )


# ---------------------------------------------------------------- surface


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
                raise ValueError("surface columns must share one length")
        if np.any(self.q025 > self.q975):
            raise ValueError("quantiles out of order")
        if np.any((self.w < 0) | (self.w > 1)):
            raise ValueError("weights must lie in [0, 1]")

    @property
    def n_cells(self) -> int:
        return self.day.shape[0]


def emit_surface(path, surface: SurfaceOutput, meta: dict | None = None):
    rows = (
        [
            str(int(surface.day[i])),
            str(int(surface.row[i])),
            str(int(surface.col[i])),
            _fmt(surface.mean[i]),
            _fmt(surface.sd[i]),
            _fmt(surface.q025[i]),
            _fmt(surface.q975[i]),
            _fmt(surface.w[i]),
        ]
        for i in range(surface.n_cells)
    )
    return _write_csv(path, SURFACE_COLUMNS, rows, meta)


def load_surface(path) -> SurfaceOutput:
    r = _Reader(path, SURFACE_COLUMNS)
    cols = [[] for _ in SURFACE_COLUMNS]
    for lineno, rec in r.rows:
        cols[0].append(r.ints(lineno, rec, 0))
        cols[1].append(r.ints(lineno, rec, 1))
        cols[2].append(r.ints(lineno, rec, 2))
        for c in range(3, 8):
            cols[c].append(r.floats(lineno, rec, c))
    return SurfaceOutput(
        day=np.asarray(cols[0], dtype=np.int64),
        row=np.asarray(cols[1], dtype=np.int64),
        col=np.asarray(cols[2], dtype=np.int64),
        mean=np.asarray(cols[3]),
        sd=np.asarray(cols[4]),
        q025=np.asarray(cols[5]),
        q975=np.asarray(cols[6]),
        w=np.asarray(cols[7]),
    )


# ---------------------------------------------------------------- evaluation


def emit_evaluation(path, reports: list, meta: dict | None = None):
    rows = (
        [
            rep.method,
            rep.estimation,
            rep.input_derivation,
            str(int(rep.n_pairs)),
            _fmt(rep.rmse),
            _fmt(rep.coverage95),
            _fmt(rep.avg_posterior_sd),
            _fmt(rep.r2),
        ]
        for rep in reports
    )
    return _write_csv(path, EVAL_COLUMNS, rows, meta)


def load_evaluation(path) -> list:
    from .crossval import EvalReport

    r = _Reader(path, EVAL_COLUMNS)
    out = []
    for lineno, rec in r.rows:
        out.append(
            EvalReport(
                rmse=r.floats(lineno, rec, 4),
                coverage95=r.floats(lineno, rec, 5),
                avg_posterior_sd=r.floats(lineno, rec, 6),
                r2=r.floats(lineno, rec, 7, allow_empty=True),
                n_pairs=r.ints(lineno, rec, 3),
                method=r.text(lineno, rec, 0),
                estimation=r.text(lineno, rec, 1),
                input_derivation=r.text(lineno, rec, 2),
            )
        )
    return out


# ---------------------------------------------------------------- config JSON


def save_json(path, obj: dict):
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    return path


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from None


# ---------------------------------------------------------------- assembly


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
    by_id = {l.site_id: k for k, l in enumerate(monitors)}
    for sid in ids:
        if sid not in by_id:
            raise SchemaError(f"observation references unknown site_id '{sid}'")
    site_idx = np.asarray([by_id[s] for s in ids], dtype=np.int64)
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

    if covariates is not None:
        cov_ids, cov_day, z_all = covariates
        lookup = {}
        for i in range(cov_ids.shape[0]):
            lookup[(cov_ids[i], int(cov_day[i]))] = i
        z = np.zeros((ids.shape[0], N_COVARIATES))
        for i in range(ids.shape[0]):
            key = (ids[i], int(day[i]))
            if key not in lookup:
                raise SchemaError(
                    f"no covariate row for site '{ids[i]}' day {int(day[i])}"
                )
            z[i] = z_all[lookup[key]]
    else:
        z = np.zeros((ids.shape[0], N_COVARIATES))

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


# ---------------------------------------------------------------- scene export


def grid_spec_to_dict(spec: GridSpec) -> dict:
    return {
        "origin_x": spec.origin_x,
        "origin_y": spec.origin_y,
        "cell_km": spec.cell_km,
        "n_rows": spec.n_rows,
        "n_cols": spec.n_cols,
        "source_tag": spec.source_tag,
    }


def grid_spec_from_dict(d: dict) -> GridSpec:
    return GridSpec(
        origin_x=float(d["origin_x"]),
        origin_y=float(d["origin_y"]),
        cell_km=float(d["cell_km"]),
        n_rows=int(d["n_rows"]),
        n_cols=int(d["n_cols"]),
        source_tag=str(d["source_tag"]),
    )


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
    ids = np.asarray([obs.sites[i].site_id for i in obs.site_idx], dtype=object)

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
    from dataclasses import asdict

    d = asdict(cfg)
    d["ctm_grid"] = grid_spec_to_dict(cfg.ctm_grid)
    d["sat_grid"] = grid_spec_to_dict(cfg.sat_grid)
    return config_hash(d)


def _grid_export_mask(shape, site_cells: np.ndarray, full_days: set) -> np.ndarray:
    keep = np.zeros(shape, dtype=bool)
    for d in full_days:
        if 1 <= d <= shape[0]:
            keep[d - 1] = True
    keep[:, site_cells[:, 0], site_cells[:, 1]] = True
    return keep
