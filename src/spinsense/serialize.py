"""JSON/CSV serialization shared by the CLI and tests.

Floats go through Python's repr (shortest round-trip form, up to 17
significant digits), so every file can be re-read without loss.
"""

import json

import numpy as np

from .errors import ConfigError
from .majorana import Constellation, HusimiGrid
from .metrology import QfiMatrix
from .states import SpinState
from .su2 import HalfInt, RotationParams
from .twomode import TwoModeState


def state_to_dict(state: SpinState) -> dict:
    return {
        "twice_j": state.j.twice_j,
        "amps": [[float(a.real), float(a.imag)] for a in state.amps],
    }


def state_from_dict(data: dict) -> SpinState:
    try:
        j = HalfInt(int(data["twice_j"]))
        amps = np.array([complex(re, im) for re, im in data["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed state object: {exc}") from exc
    return SpinState.from_amplitudes(j, amps)


def two_mode_to_dict(state: TwoModeState) -> dict:
    return {
        "two_mode": True,
        "shape": list(state.amps.shape),
        "amps": [[float(a.real), float(a.imag)] for a in state.amps.ravel()],
        "neglected": float(state.neglected),
    }


def two_mode_from_dict(data: dict) -> TwoModeState:
    try:
        shape = tuple(int(s) for s in data["shape"])
        flat = np.array([complex(re, im) for re, im in data["amps"]])
        return TwoModeState(amps=flat.reshape(shape),
                            neglected=float(data.get("neglected", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed two-mode state object: {exc}") from exc


def load_state_file(path):
    """Either a SpinState or a TwoModeState, depending on the file."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("two_mode"):
        return two_mode_from_dict(data)
    return state_from_dict(data)


def constellation_to_list(con: Constellation) -> list:
    return [{
        "polar": float(s.point.polar),
        "azimuth": float(s.point.azimuth),
        "multiplicity": int(s.multiplicity),
    } for s in con.stars]


def husimi_grid_rows(grid: HusimiGrid):
    """CSV rows (polar, azimuth, q, scaled_q)."""
    rows = []
    for a, pol in enumerate(grid.polar):
        for b, az in enumerate(grid.azimuth):
            rows.append((float(pol), float(az), float(grid.q[a, b]),
                         float(grid.scaled_q[a, b])))
    return rows


def qfi_to_dict(fi: QfiMatrix) -> dict:
    out = {
        "labels": list(fi.param_labels),
        "matrix": [[float(x) for x in row] for row in fi.q],
        "rank": int(fi.rank),
        "null_basis": [[float(x) for x in col] for col in fi.null_basis.T],
        "det": fi.det(),
        "cond": fi.cond() if fi.rank == fi.dim else None,
    }
    tr_inv = fi.trace_inverse()
    if tr_inv is not None:
        out["trace_inverse"] = tr_inv
    return out


def report_to_dict(report) -> dict:
    return {
        "estimate": {
            "theta": report.estimate.theta,
            "cap_theta": report.estimate.cap_theta,
            "cap_phi": report.estimate.cap_phi,
        },
        "param_labels": list(report.param_labels),
        "empirical_cov": [[float(x) for x in row] for row in report.empirical_cov],
        "crb_bound": [[float(x) for x in row] for row in report.crb_bound],
        "n_shots": report.n_shots,
        "n_trials": report.n_trials,
        "n_failed": report.n_failed,
        "mse": [float(x) for x in report.mse],
        "bias_sq": [float(x) for x in report.bias_sq],
        "variance": [float(x) for x in report.variance],
        "snr": [float(x) for x in report.snr],
        "trace_ratio": report.trace_ratio,
        "bound_consistent": report.bound_consistent,
        "seed": report.seed,
    }


def params_from_any(obj) -> RotationParams:
    if isinstance(obj, RotationParams):
        return obj
    if isinstance(obj, dict):
        try:
            return RotationParams(float(obj["theta"]), float(obj["cap_theta"]),
                                  float(obj["cap_phi"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed rotation parameters: {exc}") from exc
    seq = list(obj)
    if len(seq) != 3:
        raise ConfigError("rotation parameters need exactly 3 angles")
    return RotationParams(float(seq[0]), float(seq[1]), float(seq[2]))


_SCHEMES = ("optimal_pvm", "husimi")


def validate_experiment_config(data: dict) -> dict:
    """Schema check for experiment config files; returns the parsed config.

    Required: probe (family spec or {"file": path}), true_params, scheme,
    n_shots, n_trials, seed.  Optional: directions (husimi), offset_angle
    (optimal_pvm), output.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    missing = [k for k in ("probe", "true_params", "scheme", "n_shots",
                           "n_trials", "seed") if k not in data]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")
    out = {}
    probe = data["probe"]
    if not isinstance(probe, dict) or not ({"file"} & set(probe) or {"family"} & set(probe)):
        raise ConfigError("probe must carry either 'file' or 'family'")
    out["probe"] = probe
    out["true_params"] = params_from_any(data["true_params"])
    scheme = data["scheme"]
    if scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    out["scheme"] = scheme
    for key, kind in (("n_shots", int), ("n_trials", int), ("seed", int)):
        try:
            out[key] = kind(data[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} must be an integer: {exc}") from exc
        if key != "seed" and out[key] < 1:
            raise ConfigError(f"{key} must be positive")
    if scheme == "husimi":
        dirs = data.get("directions")
        if not isinstance(dirs, list) or not dirs:
            raise ConfigError("husimi scheme requires a 'directions' list")
        try:
            out["directions"] = [(float(d["polar"]), float(d["azimuth"])) for d in dirs]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"each direction needs a numeric polar and azimuth: {exc!r}") from exc
    if "offset_angle" in data:
        try:
            out["offset_angle"] = float(data["offset_angle"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"offset_angle must be a number: {exc}") from exc
    if "output" in data:
        out["output"] = str(data["output"])
    return out


def dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
