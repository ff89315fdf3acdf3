"""Command-line front end.

Commands: state, constellation, husimi, qfi, crb, simulate.
Exit codes: 0 success, 2 usage or config error, 3 mathematical infeasibility
(singular information matrix, non-identifiable model, no King found),
4 numerical failure (root finding, tolerance, truncation).
"""

import argparse
import csv
import functools
import math
import sys

import numpy as np

from . import estimation, majorana, metrology, serialize, su2, twomode
from .errors import (ConfigError, DomainError, KingSearchError,
                     NonIdentifiableError, NumericalToleranceError,
                     SingularInformationError, SpinSenseError, TruncationError)

_USAGE_EXIT = 2
_INFEASIBLE_EXIT = 3
_NUMERICAL_EXIT = 4


def cmd_state(args) -> int:
    # the parsed arguments are the family's spec once each re/im pair is joined
    state = serialize.probe_from_spec(dict(
        vars(args), z=[args.z_re, args.z_im], alpha=[args.alpha_re, args.alpha_im],
        beta=[args.beta_re, args.beta_im], xi=[args.xi_re, args.xi_im]))
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
            try:
                wanted = {int(tok) for tok in args.subspaces.split(",")}
            except ValueError:
                raise DomainError("--subspaces must be comma-separated integers, "
                                  f"got {args.subspaces!r}") from None
        payload = []
        for comp in twomode.decompose(state).components:
            n = comp.j.twice_j
            if wanted is not None and n not in wanted:
                continue
            con = majorana.constellation(comp.state)
            payload.append({"N": n, "weight": comp.weight, "n_cut": comp.n_cut,
                            "stars": serialize.constellation_to_list(con)})
    else:
        payload = serialize.constellation_to_list(majorana.constellation(state))
    serialize.dump_json(payload, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_husimi(args) -> int:
    state = serialize.load_spin_state_file(args.state)
    grid = majorana.husimi_grid(state, args.n_polar, args.n_azimuth)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["polar", "azimuth", "q", "scaled_q"])
        for row in serialize.husimi_grid_rows(grid):
            writer.writerow([repr(v) for v in row])
    print(f"wrote {args.out}")
    return 0


def _params_to_euler_zyz(p: su2.RotationParams):
    """ZYZ Euler angles: so3_matrix(p) = R_z(alpha) R_y(beta) R_z(gamma), gamma = 0 where
    sin(beta) = 0.  p's quaternion (cos(theta/2), sin(theta/2) n) is (cB cP, -sB sM, sB cM, cB sP),
    c and s the cosine and sine of B = beta/2, P = (alpha + gamma)/2 and M = (alpha - gamma)/2."""
    w, (x, y, z) = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0) * p.axis
    beta = 2.0 * math.atan2(math.hypot(x, y), math.hypot(z, w))
    plus, minus = 2.0 * math.atan2(z, w), 2.0 * math.atan2(-x, y)
    if math.sin(beta) < 1e-12:
        return np.array([plus if beta < math.pi / 2.0 else minus, beta, 0.0])
    return np.array([(plus + minus) / 2.0, beta, (plus - minus) / 2.0])


def _euler_zyz_frame(alpha, beta, _gamma) -> np.ndarray:
    """Generator vectors of the ZYZ Euler chart: e_z, R_z(alpha) e_y, R_z(alpha) R_y(beta) e_z."""
    sa, ca, sb, cb = math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta)
    return np.array([[0.0, -sa, sb * ca], [0.0, ca, sb * sa], [1.0, 0.0, cb]])


# each qfi chart's parameter labels, generator vectors at a rotation, and singular set
_REGULAR = "qfi --parametrization cartesian is regular there below a full turn"
_CHARTS = {
    "spherical": (metrology.PARAM_LABELS_SPHERICAL, lambda p: su2.generator_frame(p).matrix(),
                  f"the spherical chart is singular at theta = 0 or 2 pi and at cap_theta = 0 "
                  f"or pi; {_REGULAR}"),
    "cartesian": (("omega_x", "omega_y", "omega_z"), lambda p: su2.cartesian_frame(p.omega),
                  "the Cartesian chart is singular at a full turn, theta = 2 pi; the same "
                  "rotation is theta = 0, where it is regular"),
    "euler-zyz": (("alpha", "beta", "gamma"), lambda p: _euler_zyz_frame(*_params_to_euler_zyz(p)),
                  f"the ZYZ Euler chart has gimbal lock at beta = 0 or pi; {_REGULAR}")}


def _diagnosis(state, fi, chart):
    """singular_diagnosis of the chart's QFI of ``state`` by the probe's covariance, and the
    lines naming its classification and, for a deficit of the chart, the chart's singular set."""
    report = metrology.singular_diagnosis(fi, cov=metrology.cov_matrix(state).c)
    lines = [f"classification: {report.classification}"]
    if report.classification in ("coordinate_singularity", "state_and_coordinate"):
        lines.append(f"hint: {_CHARTS[chart][2]}")
    return report, lines


def cmd_qfi(args) -> int:
    state = serialize.load_spin_state_file(args.state)
    p = su2.RotationParams(args.theta, args.cap_theta, args.cap_phi)
    labels, frame, _ = _CHARTS[args.parametrization]
    fi = metrology._qfi_from_frame(state, p, frame(p), labels)
    payload = serialize.qfi_to_dict(fi)
    print(f"QFI matrix ({', '.join(fi.param_labels)}), rank {fi.rank}:")
    for row in fi.q:
        print("   " + "  ".join(f"{x: .6e}" for x in row))
    print(f"det = {fi.det():.6e}")
    if fi.rank == fi.dim:
        print(f"Tr Q^-1 = {fi.trace_inverse():.6e}")
    else:
        report, lines = _diagnosis(state, fi, args.parametrization)
        print("matrix is singular; pseudoinverse bound on the estimable block:")
        print(f"Tr pinv = {report.estimable_bound_trace:.6e}")
        print("\n".join(lines))
        for col in fi.null_basis.T:
            print("inestimable direction: "
                  + "  ".join(f"{x: .6f}" for x in col))
        payload["diagnosis"] = report.classification
    if args.out:
        serialize.dump_json(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_crb(args) -> int:
    state = serialize.load_spin_state_file(args.state)
    p = su2.RotationParams(args.theta, args.cap_theta, args.cap_phi)
    fi = metrology.qfi_rotation_matrix(state, p)
    try:
        bound = metrology.crb(fi, args.n_shots)
    except SingularInformationError:
        lines = [f"QFI matrix is singular (rank {fi.rank})", *_diagnosis(state, fi, "spherical")[1]]
        raise SingularInformationError("; ".join(lines), matrix=fi.q) from None
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


def cmd_simulate(args) -> int:
    study = serialize.validate_experiment_config(serialize.read_json(args.config))
    config_out = study.pop("output", None)
    report = estimation.monte_carlo_qcrb(**study)
    payload = serialize.report_to_dict(report)
    out = args.out or config_out
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


@functools.cache       # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsense",
        description="Spin-J rotation sensing: states, constellations, Fisher "
                    "information, bounds, and Monte Carlo estimation runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("state", help="construct a probe state and write it as JSON")
    ps.add_argument("family", choices=list(serialize.PROBE_FAMILIES))
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

    point = argparse.ArgumentParser(add_help=False)    # a state file and a rotation
    point.add_argument("state")
    for name in ("--theta", "--cap-theta", "--cap-phi"):
        point.add_argument(name, type=float, required=True)

    pq = sub.add_parser("qfi", parents=[point], help="rotation QFI matrix at a parameter point")
    pq.add_argument("--parametrization", choices=list(_CHARTS), default="spherical")
    pq.add_argument("--out", default=None)
    pq.set_defaults(func=cmd_qfi)

    pb = sub.add_parser("crb", parents=[point], help="quantum Cramer-Rao covariance bound")
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
