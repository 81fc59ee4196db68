"""Confounded-exposure data generation on the grid.

The outcome follows the additive structural equation

    Y = b0 + b1*Z + b2*C + b3*S1 + b4*(S2 + E) + b5*U + eps,

and the exposure is linear in the same latent fields,

    Z = a1*S1 + a2*(S2 + E) + a3*C + nu,

with S1, S2 completely spatial (band-limited), C measured (spatial or iid),
E, U, nu, eps independent per-location Gaussians, all mutually independent.
The exposure loading a2 multiplies S2 + E as a whole; the independent slice
E of that confounder is what separates the spatially-conditional quantity a
spatial adjustment can achieve from the structural b1.

Generated datasets retain every latent field so oracle checks and tests can
regress on them; estimators only ever see the ``Observations`` view
(Z, C, Y, grid).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateExposureError
from .fields import (
    FieldSpec,
    IidSpec,
    LocationGrid,
    SpectralSpec,
    derive_seed,
    make_grid,
    sample_field,
    sample_grf,
    sample_iid,
    _readonly,
)

OBSERVED_COLUMNS = ("x", "y", "Z", "C", "Y")
LATENT_COLUMNS = ("S1", "S2", "E", "U", "nu", "eps")


def _real(value, name: str) -> float:
    """``value`` as a finite float; a string or a bool is refused, not read as a number."""
    if isinstance(value, (str, bool, np.bool_)) or not np.isfinite(float(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """All data-generating parameters for one scenario.

    ``beta`` holds (b0..b5); ``loadings`` holds (a1, a2, a3), the exposure
    coefficients on S1, S2 + E, and C.  ``e_sd = 0`` makes the second
    confounder fully spatial; ``nu_sd = 0`` makes the exposure fully
    spatial (the degenerate case where spatially-conditional targets stop
    existing).
    """

    beta: tuple[float, float, float, float, float, float]
    loadings: tuple[float, float, float]
    nu_sd: float
    sigma: float
    spec_S1: SpectralSpec
    spec_S2: SpectralSpec
    spec_C: FieldSpec
    e_sd: float
    u_sd: float
    m: int

    def __post_init__(self):
        beta = tuple(_real(b, "beta") for b in self.beta)
        loadings = tuple(_real(a, "loadings") for a in self.loadings)
        if len(beta) != 6:
            raise ValueError(f"beta must have 6 entries (b0..b5), got {len(beta)}")
        if len(loadings) != 3:
            raise ValueError(f"loadings must have 3 entries (a1, a2, a3), got {len(loadings)}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "loadings", loadings)
        for name in ("nu_sd", "sigma", "e_sd", "u_sd"):
            v = _real(getattr(self, name), name)
            if v < 0:
                raise ValueError(f"{name} must be a nonnegative real, got {v!r}")
            object.__setattr__(self, name, v)
        if not isinstance(self.spec_S1, SpectralSpec) or not isinstance(self.spec_S2, SpectralSpec):
            raise ValueError("spec_S1 and spec_S2 must be SpectralSpec instances")
        if not isinstance(self.spec_C, (SpectralSpec, IidSpec)):
            raise ValueError("spec_C must be a SpectralSpec or IidSpec")
        make_grid(self.m)  # validates the range


@dataclass(frozen=True)
class Observations:
    """What an analyst sees: exposure, measured covariate, outcome, grid."""

    Z: np.ndarray
    C: np.ndarray
    Y: np.ndarray
    grid: LocationGrid


@dataclass(frozen=True)
class Dataset:
    """One simulated dataset with latent fields retained for oracles."""

    grid: LocationGrid
    Z: np.ndarray
    C: np.ndarray
    Y: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    E: np.ndarray
    U: np.ndarray
    nu: np.ndarray
    eps: np.ndarray
    config: ScenarioConfig
    seed: int

    def observations(self) -> Observations:
        return Observations(Z=self.Z, C=self.C, Y=self.Y, grid=self.grid)


def generate_dataset(config: ScenarioConfig, seed: int) -> Dataset:
    """Draw every field independently and assemble Z and Y structurally.

    Child seeds come from hashing (seed, field name), so each field's
    stream is independent of the others and of evaluation order.
    """
    grid = make_grid(config.m)
    s1 = sample_grf(grid, config.spec_S1, derive_seed(seed, "S1"))
    s2 = sample_grf(grid, config.spec_S2, derive_seed(seed, "S2"))
    c = sample_field(grid, config.spec_C, derive_seed(seed, "C"))
    e = sample_iid(grid, config.e_sd, derive_seed(seed, "E"))
    u = sample_iid(grid, config.u_sd, derive_seed(seed, "U"))
    nu = sample_iid(grid, config.nu_sd, derive_seed(seed, "nu"))
    eps = sample_iid(grid, config.sigma, derive_seed(seed, "eps"))
    a1, a2, a3 = config.loadings
    b0, b1, b2, b3, b4, b5 = config.beta
    s2plus = s2 + e
    z = a1 * s1 + a2 * s2plus + a3 * c + nu
    y = b0 + b1 * z + b2 * c + b3 * s1 + b4 * s2plus + b5 * u + eps
    return Dataset(
        grid=grid,
        Z=_readonly(z),
        C=c,
        Y=_readonly(y),
        S1=s1,
        S2=s2,
        E=e,
        U=u,
        nu=nu,
        eps=eps,
        config=config,
        seed=int(seed),
    )


def exposure_spatial_fraction(ds: Dataset) -> float:
    """Share of exposure variance carried by completely spatial components.

    Computed from latent fields as var(Z - nu - a2*E) / var(Z).  Raises
    ``DegenerateExposureError`` when the exposure has zero variance.
    """
    var_z = float(ds.Z.var())
    if var_z == 0.0:
        raise DegenerateExposureError("exposure has zero variance; fraction undefined")
    a2 = ds.config.loadings[1]
    spatial_part = ds.Z - ds.nu - a2 * ds.E
    return float(spatial_part.var() / var_z)


# ---------------------------------------------------------------------------
# CSV and JSON interchange
# ---------------------------------------------------------------------------


def dataset_to_csv(ds: Dataset, path, latent: bool = False) -> None:
    """Write the dataset as CSV (x,y,Z,C,Y, plus latent columns on request).

    Floats are written with ``repr`` so identical datasets produce
    byte-identical files.
    """
    cols = [ds.grid.coords[:, 0], ds.grid.coords[:, 1], ds.Z, ds.C, ds.Y]
    header = list(OBSERVED_COLUMNS)
    if latent:
        cols += [ds.S1, ds.S2, ds.E, ds.U, ds.nu, ds.eps]
        header += list(LATENT_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_observations_csv(path) -> Observations:
    """Read a dataset CSV back as the observations view.

    The file must carry the x,y,Z,C,Y columns (extra columns are ignored)
    and its locations must be a full row-major cell-center grid.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            idx = [header.index(c) for c in OBSERVED_COLUMNS]
        except ValueError as exc:
            missing = [c for c in OBSERVED_COLUMNS if c not in header]
            raise ValueError(f"dataset CSV is missing columns: {', '.join(missing)}") from exc
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError("dataset CSV has no data rows")
    data = np.array([[float(r[j]) for j in idx] for r in rows])
    n = data.shape[0]
    m = int(round(np.sqrt(n)))
    if m * m != n:
        raise ValueError(f"dataset has {n} rows, which is not a square grid")
    grid = make_grid(m)
    if not np.allclose(data[:, :2], grid.coords, atol=1e-9, rtol=0.0):
        raise ValueError("dataset locations are not a row-major cell-center grid")
    return Observations(
        Z=_readonly(data[:, 2]),
        C=_readonly(data[:, 3]),
        Y=_readonly(data[:, 4]),
        grid=grid,
    )


# A config document has one entry per ScenarioConfig field, under its name.
_CONFIG_FIELDS = tuple(f.name for f in fields(ScenarioConfig))
_SPEC_FIELDS = ("spec_S1", "spec_S2", "spec_C")


def _spec_to_dict(spec: FieldSpec) -> dict:
    return {"kind": "grf" if isinstance(spec, SpectralSpec) else "iid", **asdict(spec)}


def _spec_from_dict(d, field: str) -> FieldSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"field '{field}' must be an object with a 'kind' entry")
    kind = d["kind"]
    try:
        if kind == "grf":
            return SpectralSpec(
                k_min=d["k_min"],
                k_max=d["k_max"],
                decay=_real(d.get("decay", 0.0), "decay"),
                variance=_real(d["variance"], "variance"),
            )
        if kind == "iid":
            return IidSpec(sd=_real(d["sd"], "sd"))
    except KeyError as exc:
        raise ConfigError(f"field '{field}' is missing entry {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{field}' is invalid: {exc}") from exc
    raise ConfigError(f"field '{field}' has unknown kind {kind!r} (use 'grf' or 'iid')")


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-ready dict mirroring the ScenarioConfig field names."""
    doc = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if name in _SPEC_FIELDS:
            value = _spec_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[name] = value
    return doc


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a parsed JSON document, naming any bad field."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for name in _CONFIG_FIELDS:
        if name not in doc:
            raise ConfigError(f"config is missing required field: {name}")
    unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"config has unknown fields: {', '.join(unknown)}")
    try:
        values = {name: doc[name] for name in _CONFIG_FIELDS}
        for name in _SPEC_FIELDS:
            values[name] = _spec_from_dict(doc[name], name)
        return ScenarioConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config is invalid: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Load a scenario config from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: ScenarioConfig) -> str:
    """Stable hash of the config document, for provenance records."""
    canon = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
