"""JSON/CSV serialization, and the one reader of outside input: every value
from a file or the command line becomes a typed object here, or raises
ConfigError or DomainError (exit 2); nothing is silently truncated.

Floats go through Python's repr (shortest round-trip form, up to 17
significant digits), so every file can be re-read without loss.
"""

import json

import numpy as np

from . import states, twomode
from .errors import ConfigError, DomainError
from .majorana import Constellation, HusimiGrid
from .metrology import PARAM_LABELS_SPHERICAL, QfiMatrix
from .states import BlochPoint, SpinState
from .su2 import HalfInt, RotationParams
from .twomode import TwoModeState


def state_to_dict(state: SpinState) -> dict:
    return {
        "twice_j": state.j.twice_j,
        "amps": [[float(a.real), float(a.imag)] for a in state.amps],
    }


def two_mode_to_dict(state: TwoModeState) -> dict:
    return {
        "two_mode": True,
        "shape": list(state.amps.shape),
        "amps": [[float(a.real), float(a.imag)] for a in state.amps.ravel()],
        "neglected": float(state.neglected),
    }


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


def dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


# --- reading -------------------------------------------------------------------

def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _real(value, key) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key) -> int:
    """An int, or an integral float such as 1e4; never a fraction or a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _complex(value, key) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be a pair [re, im] of numbers, got {value!r}")
    return complex(_real(value[0], key), _real(value[1], key))


def _reals(obj, keys, what) -> list:
    """The numbers under ``keys`` of a JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object with keys {list(keys)}, got {obj!r}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ConfigError(f"{what} is missing {missing}")
    return [_real(obj[k], k) for k in keys]


def _spin(spec: dict) -> HalfInt:
    """J from "twice_j", an integer, or "j", a number or the text n, n.5 or n/2."""
    if "twice_j" in spec:
        return HalfInt(_integer(spec["twice_j"], "twice_j"))
    if "j" not in spec:
        raise ConfigError("a spin probe needs 'twice_j' or 'j'")
    text = str(spec["j"]).strip()
    num, slash, den = text.partition("/")
    try:        # float() also rejects any n/d with d other than 2
        number = int(num) if slash and den.strip() == "2" else float(text)
    except ValueError:
        raise DomainError(f"J must be given as n, n.5 or n/2, got {text!r}") from None
    return HalfInt(number) if slash else HalfInt.from_j(number)


def _amplitudes(data: dict) -> np.ndarray:
    amps = data.get("amps")
    if not isinstance(amps, list):
        raise ConfigError("a state needs 'amps', a list of [re, im] pairs")
    return np.array([_complex(a, "amps") for a in amps], dtype=complex)


def state_from_dict(data: dict) -> SpinState:
    j = HalfInt(_integer(data.get("twice_j"), "twice_j"))
    return SpinState.from_amplitudes(j, _amplitudes(data))


def two_mode_from_dict(data: dict) -> TwoModeState:
    shape = data.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2):
        raise ConfigError(f"a two-mode state needs 'shape', two mode sizes, got {shape!r}")
    n_a, n_b = (_integer(n, "shape") for n in shape)
    flat = _amplitudes(data)
    if min(n_a, n_b) < 1 or flat.size != n_a * n_b:
        raise ConfigError(f"{flat.size} amplitudes do not fill a {n_a} x {n_b} grid")
    return TwoModeState(amps=flat.reshape(n_a, n_b),
                        neglected=_real(data.get("neglected", 0.0), "neglected"))


def load_state_file(path):
    """Either a SpinState or a TwoModeState, depending on the file."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return two_mode_from_dict(data) if data.get("two_mode") else state_from_dict(data)


def _single_spin(state) -> SpinState:
    if isinstance(state, TwoModeState):
        raise ConfigError("this needs a single spin-J state, not a two-mode state")
    return state


def load_spin_state_file(path) -> SpinState:
    """A state file that must hold a single spin-J state."""
    return _single_spin(load_state_file(path))


def _two_mode_coherent(alpha, beta, n_max):
    return twomode.two_mode_coherent(
        alpha, beta, n_max or twomode.default_n_max(abs(alpha) ** 2 + abs(beta) ** 2))


def _coherent_plus_squeezed(alpha, xi, n_max, n_max_b):
    return twomode.coherent_plus_squeezed(
        alpha, xi, n_max or twomode.default_n_max(abs(alpha) ** 2),
        n_max_b=n_max_b or twomode.squeezed_n_max(xi))


# Each probe family: its constructor, called with the values of its keys in
# order ("j" is "twice_j" or "j"), looked up per call so wrappers see it.
PROBE_FAMILIES = {
    "basis": (lambda j, m: states.basis_state(j, m), ("j", "m")),
    "coherent": (lambda j, polar, azimuth: states.coherent_state(j, BlochPoint(polar, azimuth)),
                 ("j", "polar", "azimuth")),
    "noon": (lambda j: states.noon_state(j), ("j",)),
    "cat": (lambda j, z: states.cat_state(j, z), ("j", "z")),
    "balanced": (lambda j, m: states.balanced_state(j, m), ("j", "m")),
    "king": (lambda j: states.king_state(j), ("j",)),
    "two-mode-coherent": (_two_mode_coherent, ("alpha", "beta", "n_max")),
    "coherent+squeezed": (_coherent_plus_squeezed, ("alpha", "xi", "n_max", "n_max_b")),
}
_PROBE_KEYS = {"m": _real, "polar": _real, "azimuth": _real, "z": _complex, "alpha": _complex,
               "beta": _complex, "xi": _complex, "n_max": _integer, "n_max_b": _integer}
_OPTIONAL = ("n_max", "n_max_b")       # left out or null: sized from the amplitudes


def _probe_value(spec: dict, key: str):
    if key == "j":
        return _spin(spec)
    if spec.get(key) is None:
        if key in _OPTIONAL:
            return None
        raise ConfigError(f"probe family {spec['family']!r} needs {key!r}")
    return _PROBE_KEYS[key](spec[key], key)


def probe_from_spec(spec):
    """The state a probe spec names: {"file": path}, or {"family": name}
    with the keys that family needs (see PROBE_FAMILIES)."""
    if not isinstance(spec, dict):
        raise ConfigError(f"probe must be an object, got {spec!r}")
    if "file" in spec:
        if not isinstance(spec["file"], str):
            raise ConfigError(f"probe file must be a file name, got {spec['file']!r}")
        return load_state_file(spec["file"])
    family = spec.get("family")
    if not isinstance(family, str) or family not in PROBE_FAMILIES:
        raise ConfigError(f"probe needs 'file' or a 'family' out of "
                          f"{list(PROBE_FAMILIES)}, got {family!r}")
    build, keys = PROBE_FAMILIES[family]
    return build(*(_probe_value(spec, key) for key in keys))


_SCHEMES = ("optimal_pvm", "husimi")
_REQUIRED = ("probe", "true_params", "scheme", "n_shots", "n_trials", "seed")


def validate_experiment_config(data: dict) -> dict:
    """Check an experiment config and build what it names: the keyword
    arguments of estimation.monte_carlo_qcrb (a single spin-J probe,
    RotationParams, BlochPoint directions), plus "output" when given.

    Required: probe, true_params, scheme, n_shots, n_trials, seed.  Optional:
    directions (husimi), offset_angle (optimal_pvm), output.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")
    scheme = data["scheme"]
    if scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    out = {"true_params": RotationParams(*_reals(data["true_params"], PARAM_LABELS_SPHERICAL,
                                                 "true_params")),
           "scheme": scheme}
    for key in ("n_shots", "n_trials", "seed"):
        out[key] = _integer(data[key], key)
    if min(out["n_shots"], out["n_trials"]) < 1 or out["seed"] < 0 or out["n_shots"] >= 2 ** 63:
        raise ConfigError("n_shots (below 2^63, numpy's sampling limit) and n_trials must be "
                          "positive, and seed non-negative")
    if scheme == "husimi":
        dirs = data.get("directions")
        if not isinstance(dirs, list) or not dirs:
            raise ConfigError("husimi scheme requires a 'directions' list")
        out["directions"] = [BlochPoint(*_reals(d, ("polar", "azimuth"), "each direction"))
                             for d in dirs]
    if "offset_angle" in data:
        out["offset_angle"] = _real(data["offset_angle"], "offset_angle")
    if "output" in data:
        if not isinstance(data["output"], str):
            raise ConfigError(f"output must be a file name, got {data['output']!r}")
        out["output"] = data["output"]
    out["probe"] = _single_spin(probe_from_spec(data["probe"]))
    return out
