"""Command-line front end.

Commands: state, constellation, husimi, qfi, crb, simulate.
Exit codes: 0 success, 2 usage or config error, 3 mathematical infeasibility
(singular information matrix, non-identifiable model, no King found),
4 numerical failure (root finding, tolerance, truncation).
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import estimation, majorana, metrology, serialize, states, su2, twomode
from .errors import (ConfigError, DomainError, KingSearchError,
                     NonIdentifiableError, NumericalToleranceError,
                     SingularInformationError, SpinSenseError, TruncationError)

_USAGE_EXIT = 2
_INFEASIBLE_EXIT = 3
_NUMERICAL_EXIT = 4


def _parse_j(text: str) -> su2.HalfInt:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if den.strip() != "2":
            raise DomainError(f"J must be given as n, n.5 or n/2, got {text!r}")
        return su2.HalfInt(int(num))
    return su2.HalfInt.from_j(float(text))


def _parse_complex(re: float, im: float) -> complex:
    return complex(re, im)


def _state_from_args(args):
    family = args.family
    if family == "basis":
        return states.basis_state(_parse_j(args.j), args.m)
    if family == "coherent":
        return states.coherent_state(_parse_j(args.j),
                                     states.BlochPoint(args.polar, args.azimuth))
    if family == "noon":
        return states.noon_state(_parse_j(args.j))
    if family == "cat":
        return states.cat_state(_parse_j(args.j), _parse_complex(args.z_re, args.z_im))
    if family == "balanced":
        return states.balanced_state(_parse_j(args.j), args.m)
    if family == "king":
        return states.king_state(_parse_j(args.j), seed=args.seed)
    if family == "two-mode-coherent":
        alpha = _parse_complex(args.alpha_re, args.alpha_im)
        beta = _parse_complex(args.beta_re, args.beta_im)
        n_max = args.n_max or twomode.default_n_max(abs(alpha) ** 2 + abs(beta) ** 2)
        return twomode.two_mode_coherent(alpha, beta, n_max)
    if family == "coherent+squeezed":
        alpha = _parse_complex(args.alpha_re, args.alpha_im)
        xi = _parse_complex(args.xi_re, args.xi_im)
        n_max = args.n_max or twomode.default_n_max(abs(alpha) ** 2)
        nb = args.n_max_b or twomode.squeezed_n_max(xi)
        return twomode.coherent_plus_squeezed(alpha, xi, n_max, n_max_b=nb)
    raise DomainError(f"unknown family {family!r}")


def cmd_state(args) -> int:
    state = _state_from_args(args)
    if isinstance(state, twomode.TwoModeState):
        payload = serialize.two_mode_to_dict(state)
        mean, _ = twomode.spin_moments(state)
        norm = math.sqrt(state.norm_squared())
    else:
        payload = serialize.state_to_dict(state)
        mean = state.mean_spin()
        norm = float(np.linalg.norm(state.amps))
    serialize.dump_json(payload, args.out)
    print(f"wrote {args.out}")
    print(f"norm = {float(norm)!r}")
    print(f"<J> = ({float(mean[0])!r}, {float(mean[1])!r}, {float(mean[2])!r})")
    return 0


def cmd_constellation(args) -> int:
    state = serialize.load_state_file(args.state)
    if isinstance(state, twomode.TwoModeState):
        wanted = None
        if args.subspaces:
            wanted = {int(tok) for tok in args.subspaces.split(",")}
        payload = []
        for comp in twomode.decompose(state).components:
            n = comp.j.twice_j
            if wanted is not None and n not in wanted:
                continue
            con = majorana.constellation(comp.state)
            payload.append({"N": n, "weight": comp.weight,
                            "stars": serialize.constellation_to_list(con)})
    else:
        payload = serialize.constellation_to_list(majorana.constellation(state))
    serialize.dump_json(payload, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_husimi(args) -> int:
    state = serialize.load_state_file(args.state)
    if isinstance(state, twomode.TwoModeState):
        raise DomainError("husimi export needs a single spin-J state file")
    grid = majorana.husimi_grid(state, args.n_polar, args.n_azimuth)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["polar", "azimuth", "q", "scaled_q"])
        for row in serialize.husimi_grid_rows(grid):
            writer.writerow([repr(v) for v in row])
    print(f"wrote {args.out}")
    return 0


def _euler_zyz_to_params(angles) -> su2.RotationParams:
    a, b, g = angles
    rz_a = su2.so3_matrix(su2.RotationParams(a % (2 * math.pi), 0.0, 0.0))
    ry_b = su2.so3_matrix(su2.RotationParams(abs(b), math.pi / 2,
                                             math.pi / 2 if b >= 0 else 3 * math.pi / 2))
    rz_g = su2.so3_matrix(su2.RotationParams(g % (2 * math.pi), 0.0, 0.0))
    return su2.RotationParams.from_so3(rz_a @ ry_b @ rz_g)


def _params_to_euler_zyz(p: su2.RotationParams):
    m = su2.so3_matrix(p)
    beta = math.acos(min(1.0, max(-1.0, m[2, 2])))
    if abs(math.sin(beta)) < 1e-12:
        alpha = math.atan2(m[1, 0], m[0, 0])
        gamma = 0.0
    else:
        alpha = math.atan2(m[1, 2], m[0, 2])
        gamma = math.atan2(m[2, 1], -m[2, 0])
    return np.array([alpha, beta, gamma])


def cmd_qfi(args) -> int:
    state = serialize.load_state_file(args.state)
    if isinstance(state, twomode.TwoModeState):
        raise DomainError("qfi needs a single spin-J state file")
    p = su2.RotationParams(args.theta, args.cap_theta, args.cap_phi)
    fi = metrology.qfi_rotation_matrix(state, p)
    if args.parametrization == "cartesian":
        jac = metrology.spherical_to_cartesian_jacobian(p)
        fi = metrology.reparametrize(fi, jac, ("omega_x", "omega_y", "omega_z"))
    elif args.parametrization == "euler-zyz":
        eul = _params_to_euler_zyz(p)
        step = 1e-6
        jac = np.zeros((3, 3))
        for k in range(3):
            up, dn = eul.copy(), eul.copy()
            up[k] += step
            dn[k] -= step
            jac[:, k] = (_euler_zyz_to_params(up).as_array()
                         - _euler_zyz_to_params(dn).as_array()) / (2 * step)
        fi = metrology.reparametrize(fi, jac, ("alpha", "beta", "gamma"))
    payload = serialize.qfi_to_dict(fi)
    print(f"QFI matrix ({', '.join(fi.param_labels)}), rank {fi.rank}:")
    for row in fi.q:
        print("   " + "  ".join(f"{x: .6e}" for x in row))
    print(f"det = {fi.det():.6e}")
    if fi.rank == fi.dim:
        print(f"Tr Q^-1 = {fi.trace_inverse():.6e}")
    else:
        report = metrology.singular_diagnosis(
            fi, perturbed=metrology.rotation_qfi_perturber(state, p)
            if args.parametrization == "spherical" else None)
        print("matrix is singular; pseudoinverse bound on the estimable block:")
        print(f"Tr pinv = {report.estimable_bound_trace:.6e}")
        print(f"classification: {report.classification}")
        if report.classification == "coordinate_singularity":
            print("hint: a coordinate singularity; switching charts (for "
                  "example --parametrization cartesian near theta = 0) "
                  "restores full rank")
        for col in fi.null_basis.T:
            print("inestimable direction: "
                  + "  ".join(f"{x: .6f}" for x in col))
        payload["diagnosis"] = report.classification
    if args.out:
        serialize.dump_json(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_crb(args) -> int:
    state = serialize.load_state_file(args.state)
    if isinstance(state, twomode.TwoModeState):
        raise DomainError("crb needs a single spin-J state file")
    p = su2.RotationParams(args.theta, args.cap_theta, args.cap_phi)
    fi = metrology.qfi_rotation_matrix(state, p)
    bound = metrology.crb(fi, args.n_shots)
    payload = {
        "bound": [[float(x) for x in row] for row in bound.bound],
        "trace": bound.trace,
        "n_shots": bound.n_shots,
        "cond": bound.cond,
        "labels": list(fi.param_labels),
    }
    print(f"QCRB covariance bound for N = {args.n_shots} shots "
          f"(trace {bound.trace!r}):")
    for row in bound.bound:
        print("   " + "  ".join(f"{x: .6e}" for x in row))
    if args.out:
        serialize.dump_json(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def _probe_from_config(probe_spec) -> states.SpinState:
    if "file" in probe_spec:
        state = serialize.load_state_file(probe_spec["file"])
        if isinstance(state, twomode.TwoModeState):
            raise ConfigError("simulation probes must be single spin-J states")
        return state
    family = probe_spec.get("family")
    j = su2.HalfInt(int(probe_spec["twice_j"])) if "twice_j" in probe_spec \
        else su2.HalfInt.from_j(probe_spec["j"])
    if family == "king":
        return states.king_state(j)
    if family == "noon":
        return states.noon_state(j)
    if family == "basis":
        return states.basis_state(j, probe_spec["m"])
    if family == "balanced":
        return states.balanced_state(j, probe_spec["m"])
    if family == "coherent":
        return states.coherent_state(
            j, states.BlochPoint(probe_spec["polar"], probe_spec["azimuth"]))
    if family == "cat":
        return states.cat_state(j, complex(*probe_spec["z"]))
    raise ConfigError(f"unsupported probe family {family!r}")


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = serialize.validate_experiment_config(raw)
    probe = _probe_from_config(cfg["probe"])
    kwargs = {}
    if cfg["scheme"] == "husimi":
        kwargs["directions"] = [states.BlochPoint(p, a) for p, a in cfg["directions"]]
    if "offset_angle" in cfg:
        kwargs["offset_angle"] = cfg["offset_angle"]
    report = estimation.monte_carlo_qcrb(
        probe, cfg["true_params"], cfg["scheme"], cfg["n_shots"],
        cfg["n_trials"], cfg["seed"], **kwargs)
    payload = serialize.report_to_dict(report)
    out = args.out or cfg.get("output")
    if out:
        serialize.dump_json(payload, out)
    print(f"trials: {report.n_trials} ({report.n_failed} failed), "
          f"shots/trial: {report.n_shots}")
    print(f"Tr empirical covariance = {float(np.trace(report.empirical_cov))!r}")
    print(f"Tr QCRB               = {float(np.trace(report.crb_bound))!r}")
    print(f"saturation ratio      = {report.trace_ratio!r}")
    print("parameter  mse           bias^2        variance      snr")
    for k, label in enumerate(report.param_labels):
        print(f"{label:10s} {report.mse[k]:.6e}  {report.bias_sq[k]:.6e}  "
              f"{report.variance[k]:.6e}  {report.snr[k]:.3e}")
    if out:
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsense",
        description="Spin-J rotation sensing: states, constellations, Fisher "
                    "information, bounds, and Monte Carlo estimation runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("state", help="construct a probe state and write it as JSON")
    ps.add_argument("family", choices=["basis", "coherent", "noon", "cat",
                                       "balanced", "king", "two-mode-coherent",
                                       "coherent+squeezed"])
    ps.add_argument("--j", default="1", help="spin J (e.g. 2, 1.5 or 3/2)")
    ps.add_argument("--m", type=float, default=None)
    ps.add_argument("--polar", type=float, default=0.0)
    ps.add_argument("--azimuth", type=float, default=0.0)
    ps.add_argument("--z-re", type=float, default=1.0)
    ps.add_argument("--z-im", type=float, default=0.0)
    ps.add_argument("--alpha-re", type=float, default=1.0)
    ps.add_argument("--alpha-im", type=float, default=0.0)
    ps.add_argument("--beta-re", type=float, default=0.0)
    ps.add_argument("--beta-im", type=float, default=0.0)
    ps.add_argument("--xi-re", type=float, default=0.5)
    ps.add_argument("--xi-im", type=float, default=0.0)
    ps.add_argument("--n-max", type=int, default=None)
    ps.add_argument("--n-max-b", type=int, default=None)
    ps.add_argument("--seed", type=int, default=20, help="King search seed")
    ps.add_argument("--out", default="state.json")
    ps.set_defaults(func=cmd_state)

    pc = sub.add_parser("constellation", help="export Majorana stars as JSON")
    pc.add_argument("state", help="state JSON file")
    pc.add_argument("--subspaces", default=None,
                    help="comma-separated total photon numbers (two-mode input)")
    pc.add_argument("--out", default="constellation.json")
    pc.set_defaults(func=cmd_constellation)

    ph = sub.add_parser("husimi", help="export a Husimi-function grid as CSV")
    ph.add_argument("state")
    ph.add_argument("--n-polar", type=int, default=64)
    ph.add_argument("--n-azimuth", type=int, default=128)
    ph.add_argument("--out", default="husimi.csv")
    ph.set_defaults(func=cmd_husimi)

    pq = sub.add_parser("qfi", help="rotation QFI matrix at a parameter point")
    pq.add_argument("state")
    pq.add_argument("--theta", type=float, required=True)
    pq.add_argument("--cap-theta", type=float, required=True)
    pq.add_argument("--cap-phi", type=float, required=True)
    pq.add_argument("--parametrization",
                    choices=["spherical", "cartesian", "euler-zyz"],
                    default="spherical")
    pq.add_argument("--out", default=None)
    pq.set_defaults(func=cmd_qfi)

    pb = sub.add_parser("crb", help="quantum Cramer-Rao covariance bound")
    pb.add_argument("state")
    pb.add_argument("--theta", type=float, required=True)
    pb.add_argument("--cap-theta", type=float, required=True)
    pb.add_argument("--cap-phi", type=float, required=True)
    pb.add_argument("--n-shots", type=int, default=1)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_crb)

    pm = sub.add_parser("simulate", help="run a Monte Carlo experiment config")
    pm.add_argument("config")
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (SingularInformationError, NonIdentifiableError, KingSearchError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return _INFEASIBLE_EXIT
    except (NumericalToleranceError, TruncationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except SpinSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
