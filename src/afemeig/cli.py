"""Command line front end: ``afem run ...`` and ``afem reproduce ...``.

``afem run`` hands `AfemConfig` only the flags given, so a flag left out keeps
the config's default, and the config checks every setting.  Exit codes: 0 on
completion, 2 when the tracked cluster's identity is lost, 1 on any other
error, usage errors included.  ``afem reproduce`` exits 0 when every case ran,
also when its report reads FAIL for a slope.
"""

import argparse
import dataclasses
import os
import sys

from .cases import CASES, run_cases
from .driver import AfemConfig, ClusterIdentityError, emit_plot, export_trace, run_afem


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, like any invalid setting; subparsers take this class
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="afem",
        description="Adaptive finite element eigenvalue solver "
                    "(Solve -> Estimate -> Mark -> Refine).")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the adaptive loop on a model problem",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--problem", help="square | lshape | oscillator | file:<spec.json>")
    run.add_argument("--degree", type=int, help="polynomial degree, 1 or 2")
    run.add_argument("--theta", type=float, help="Dörfler bulk fraction in (0, 1)")
    run.add_argument("--cluster", type=int, dest="cluster_index", metavar="K",
                     help="1-based position of the tracked cluster")
    run.add_argument("--multiplicity", type=int, metavar="Q",
                     help="multiplicity of the tracked cluster")
    run.add_argument("--first-n", type=int, metavar="N",
                     help="track the first N eigenvalues instead of a cluster")
    run.add_argument("--max-dof", type=float)
    run.add_argument("--b", type=int, dest="bisections", help="bisections per marked element")
    run.add_argument("--eig-tol", type=float)
    run.add_argument("--no-gap", action="store_false", dest="compute_gap",
                     help="skip eigenspace-gap computation")
    run.add_argument("--uniform", action="store_const", const="uniform", dest="marking",
                     help="refine uniformly instead of marking (control runs)")
    run.add_argument("--trace", metavar="OUT.CSV", default=None, help="write the trace CSV")
    run.add_argument("--plot", metavar="OUT.SVG", default=None, help="write a log-log SVG plot")
    run.add_argument("--mesh-out", metavar="DIR", default=None,
                     help="write the final mesh (JSON + legacy VTK) into DIR")
    reproduce = sub.add_parser(
        "reproduce", help="run the reproduction cases and report their slopes")
    reproduce.add_argument("cases", nargs="*", metavar="CASE",
                           help=f"cases to run (default all): {', '.join(CASES)}")
    reproduce.add_argument("--max-dof", type=float,
                           help="free dofs for every case instead of its own")
    reproduce.add_argument("--out", default="results",
                           help="directory for the traces and plots")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            run_cases(args.cases, args.max_dof, args.out)
            return 0
        fields = {f.name for f in dataclasses.fields(AfemConfig)}
        config = AfemConfig(**{k: v for k, v in vars(args).items() if k in fields})
        trace = run_afem(config)
    except ClusterIdentityError as exc:
        print(f"afem: cluster identity lost: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"afem: error: {exc}", file=sys.stderr)
        return 1

    lam = ", ".join(f"{v:.9g}" for v in trace.lambdas[-1])
    print(f"{trace.meta['label']}: {len(trace)} iterations, "
          f"{trace.n_dofs[-1]} dofs, status={trace.meta['status']}")
    print(f"  lambda = [{lam}]")
    print(f"  eta2 = {trace.eta2[-1]:.6e}  gap2 = {trace.gap2[-1]:.6e}")
    if args.trace:
        export_trace(trace, args.trace)
        print(f"  trace -> {args.trace}")
    if args.plot:
        series = ("eta2",) if not config.compute_gap else ("eta2", "gap2")
        emit_plot(trace, args.plot, series=series)
        print(f"  plot -> {args.plot}")
    if args.mesh_out:
        os.makedirs(args.mesh_out, exist_ok=True)
        trace.final_mesh.to_json(os.path.join(args.mesh_out, "mesh_final.json"))
        trace.final_mesh.to_vtk(os.path.join(args.mesh_out, "mesh_final.vtk"))
        print(f"  mesh -> {args.mesh_out}/mesh_final.{{json,vtk}}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
