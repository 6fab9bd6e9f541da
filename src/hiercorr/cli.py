"""Command-line front end.

Every command prints a JSON report to stdout carrying the command name, the
effective config, command-specific results, diagnostics, and wall time; the
``demo`` command prints a human pass/fail table instead.  Values are in nats
unless ``--bits`` is given.  Exit codes: 0 success, 1 a failed
verification (``theorem1``, ``demo``), 2 validation error, 3 non-convergence.
``python -m hiercorr`` runs the same commands.  Thread use follows the numpy
conventions, so set OMP_NUM_THREADS to bound it.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .algebra import ShapeError, SystemShape, hermitize_basis, matrix_fourier_basis
from .factorization import (
    GuardExceeded,
    build_interaction_matrix,
    check_toric_membership,
    enumerate_feasibility,
    is_k_feasible,
    toric_kernel,
)
from .hierarchy import (
    Hypergraph,
    HypergraphError,
    build_model,
    covering_hypergraphs,
    hypergraph_k,
    model_dim,
    numerical_basis_rank,
)
from .maxent import (
    INTERIOR_TOL,
    METHODS,
    ConvergenceError,
    correlation_decomposition,
    divergence_from_model,
    maxent_project,
    multi_information,
)
from .maximizers import search_local_maximizers
from .twoqubit import (
    bell_from_lambda,
    bell_from_t,
    classical_witness,
    correlation_geometry_rows,
    is_classically_correlated_bd,
    is_physical_t,
    is_separable,
    mutual_information_bd,
    separable_extreme_points,
    verify_mutual_information_bound,
)
from . import io as hio

LOG2 = math.log(2.0)


def _parse_floats(text: str, n: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != n:
        raise ShapeError(f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ShapeError(f"cannot parse {what}: {exc}") from exc


def _parse_shape(args) -> SystemShape:
    text = args.shape
    if text is None:
        raise ShapeError("this command needs --shape")
    if text.endswith(".json") or os.path.exists(text):
        try:
            with open(text) as fh:
                return hio.shape_from_dict(json.load(fh))
        except OSError as exc:
            raise ShapeError(f"cannot read shape file {text!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ShapeError(f"shape file {text!r} is not valid JSON: {exc}") from exc
    sizes = tuple(int(p) for p in text.split(",") if p.strip())
    kind = getattr(args, "kind", "classical") or "classical"
    kinds = tuple(k for k in kind.split(",")) if "," in kind else (kind,) * len(sizes)
    return SystemShape(sizes, kinds)


def _parse_family(args, n_units: int) -> Hypergraph:
    path = getattr(args, "hypergraph", None)
    k = getattr(args, "k", None)
    if (path is None) == (k is None):
        raise ShapeError("give exactly one of --hypergraph or --k")
    if path is not None:
        hg = hio.load_hypergraph(path)
        if hg.N != n_units:
            raise ShapeError(f"hypergraph is on {hg.N} units, the state has {n_units}")
        return hg
    return hypergraph_k(n_units, int(k))


def _parse_configs(text: str, shape: SystemShape) -> list:
    out = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if len(token) != shape.N:
            raise ShapeError(f"configuration {token!r} needs {shape.N} digits")
        out.append(tuple(int(ch) for ch in token))
    if not out:
        raise ShapeError("empty support")
    return out


def _projection_payload(res, scale: float) -> tuple[dict, dict]:
    results = {
        "divergence": res.divergence / scale,
        "method": res.method,
        "converged": res.converged,
        "projection": hio.state_to_dict(res.state),
    }
    if res.theta is not None:
        results["theta"] = [float(x) for x in res.theta.theta]
        results["log_partition"] = float(res.theta.log_partition)
    diagnostics = {
        "residual": res.residual,
        "iterations": res.iterations,
        "support_dim": res.diagnostics.get("support_dim"),
    }
    # entropies in the report's unit, as the divergence
    for key in ("relative_entropy_direct", "gap"):
        if key in res.diagnostics:
            diagnostics[key] = res.diagnostics[key] / scale
    return results, diagnostics


# ---------------------------------------------------------------------------
# command implementations; each returns (results, diagnostics, exit_code)


def _cmd_project(args, scale):
    rho = hio.load_state(args.state)
    hg = _parse_family(args, rho.shape.N)
    kw = {"method": args.method}
    if args.tol is not None:
        kw["tol"] = args.tol
    res = maxent_project(rho, build_model(rho.shape, hg), **kw)
    results, diagnostics = _projection_payload(res, scale)
    return results, diagnostics, 0 if res.converged else 3


def _cmd_ck(args, scale):
    rho = hio.load_state(args.state)
    n = rho.shape.N
    if not 1 <= args.k <= n:
        raise ShapeError(f"--k must lie in 1..{n}")
    if args.k == n:
        return {"k": args.k, "value": 0.0, "exact": True}, {}, 0
    kw = {"method": args.method}
    if args.tol is not None:
        kw["tol"] = args.tol
    res = divergence_from_model(rho, hypergraph_k(n, args.k), **kw)
    results = {"k": args.k, "value": res.divergence / scale, "method": res.method,
               "converged": res.converged}
    diagnostics = {"residual": res.residual, "iterations": res.iterations}
    return results, diagnostics, 0 if res.converged else 3


def _cmd_decompose(args, scale):
    rho = hio.load_state(args.state)
    kw = {} if args.tol is None else {"tol": args.tol}
    dec = correlation_decomposition(rho, **kw)
    results = {
        "c": [v / scale for v in dec["c"]],
        "C": {str(k): v / scale for k, v in dec["C"].items()},
        "total": dec["total"] / scale,
    }
    return results, {"residuals": dec["residuals"]}, 0 if dec["converged"] else 3


def _cmd_multiinfo(args, scale):
    rho = hio.load_state(args.state)
    return {"multi_information": multi_information(rho) / scale, "exact": True}, {}, 0


def _cmd_dims(args, scale):
    shape = _parse_shape(args)
    if getattr(args, "hypergraph", None) or getattr(args, "k", None) is not None:
        hgs = [_parse_family(args, shape.N)]
    else:
        hgs = list(covering_hypergraphs(shape.N))
    rows = []
    for hg in hgs:
        total, manifold = model_dim(shape, hg)
        row = {"generators": [list(v) for v in hg.maximal_sets],
               "dim_total": total, "dim_model": manifold}
        if args.certify:
            row["numerical_rank"] = numerical_basis_rank(build_model(shape, hg))
        rows.append(row)
    results = {"shape": hio.shape_to_dict(shape), "models": rows}
    return results, {"count": len(rows)}, 0


def _cmd_basis(args, scale):
    n = args.n
    fourier = matrix_fourier_basis(n)
    herm = hermitize_basis(fourier)
    flat = np.stack(fourier).reshape(n * n, -1)
    gram_dev = float(np.max(np.abs(flat @ flat.conj().T - np.eye(n * n))))
    results = {
        "n": n,
        "fourier": [hio.matrix_to_pairs(m) for m in fourier],
        "hermitian": [hio.matrix_to_pairs(m) for m in herm],
    }
    return results, {"gram_deviation": gram_dev}, 0


def _cmd_feasibility(args, scale):
    shape = _parse_shape(args)
    if not shape.all_classical:
        raise ShapeError("feasibility analysis needs a classical shape")
    if args.exhaustive:
        max_size = args.max_size if args.max_size is not None else shape.dim
        report = enumerate_feasibility(shape, args.k, max_size=max_size)
        return report.to_dict(), {}, 0
    if not args.support:
        raise ShapeError("give --support or --exhaustive")
    configs = _parse_configs(args.support, shape)
    feasible = is_k_feasible(build_interaction_matrix(shape, args.k), configs)
    results = {"k": args.k, "support": ["".join(str(d) for d in c) for c in configs],
               "feasible": feasible}
    return results, {}, 0


def _cmd_toric(args, scale):
    shape = _parse_shape(args)
    if not shape.all_classical:
        raise ShapeError("the interaction matrix is defined for classical shapes")
    imat = build_interaction_matrix(shape, args.k)
    kernel = toric_kernel(imat)
    results = {
        "k": args.k,
        "monomial_exponents": imat.matrix.tolist(),
        "kernel": kernel.tolist(),
    }
    diagnostics = {"kernel_rank": int(kernel.shape[0])}
    if args.state:
        rho = hio.load_state(args.state)
        if rho.shape != shape:
            raise ShapeError("state shape disagrees with --shape")
        member = check_toric_membership(rho.probabilities(), imat)
        results["membership"] = {
            "is_member": member.is_member,
            "residuals": member.residuals,
            "zero_support_flags": member.zero_support_flags,
        }
    if args.out:
        # one CSV, kernel rows appended below the interaction matrix rows
        tagged = [{"row": f"{tag}{i}", **{f"x{j}": int(v) for j, v in enumerate(row)}}
                  for tag, rows in (("moment", imat.matrix), ("kernel", kernel))
                  for i, row in enumerate(rows)]
        hio.write_csv(args.out, tagged)
        results["csv"] = args.out
    return results, diagnostics, 0


def _cmd_maximize(args, scale):
    shape = _parse_shape(args)
    hg = _parse_family(args, shape.N)
    report = search_local_maximizers(
        shape, hg, n_restarts=args.restarts, seed=args.seed, max_steps=args.steps
    )
    records = [
        {
            "value": r.value / scale,
            "support_dim": r.support_dim,
            "exp_residual": r.exp_residual,
            "hits": r.hits,
            "state": hio.state_to_dict(r.state),
        }
        for r in report.records
    ]
    results = {
        "bound": {"value": report.bound.value, "argument": report.bound.argument,
                  "proven": report.bound.proven},
        "bound_satisfied": report.bound_satisfied,
        "records": records,
    }
    diagnostics = {
        "n_restarts": report.n_restarts,
        "projection_failures": report.projection_failures,
        "evaluations": report.evaluations,
    }
    return results, diagnostics, 3 if report.projection_failures else 0


def _cmd_bell(args, scale):
    if (args.t is None) == (args.lam is None):
        raise ShapeError("give exactly one of --t or --lambda")
    if args.t is not None:
        t = _parse_floats(args.t, 3, "--t")
        if not is_physical_t(t):
            return {"t": t.tolist(), "physical": False}, {}, 0
        bd = bell_from_t(t)
    else:
        lam = _parse_floats(args.lam, 4, "--lambda")
        if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-9:
            raise ShapeError("--lambda must be a probability vector over the four Bell lines")
        bd = bell_from_lambda(np.clip(lam, 0.0, None) / max(lam.sum(), 1e-300))
    results = {
        "t": bd.t.tolist(),
        "lambda": bd.lam.tolist(),
        "physical": True,
        "separable": is_separable(bd),
        "classically_correlated": is_classically_correlated_bd(bd),
        "mutual_information": mutual_information_bd(bd) / scale,
        "state": hio.state_to_dict(bd.state),
    }
    witness = classical_witness(bd)
    if witness is not None:
        results["witness_bases"] = [hio.matrix_to_pairs(w) for w in witness]
    return results, {}, 0


def _cmd_theorem1(args, scale):
    report = verify_mutual_information_bound(n_samples=args.samples, seed=args.seed)
    extremes = [
        {"pair": list(pair), "t": bd.t.tolist(),
         "mutual_information": mutual_information_bd(bd) / scale}
        for pair, bd in separable_extreme_points()
    ]
    report["max_mutual_information"] /= scale
    report["bound"] /= scale
    results = {"verification": report, "maximizers": extremes}
    return results, {"n_samples": args.samples}, 0 if report["passed"] else 1


def _cmd_fig1(args, scale):
    rows = correlation_geometry_rows(grid=args.grid)
    for row in rows:
        row["mutual_information"] /= scale  # nan off the physical region
    out = args.out or "geometry.csv"
    hio.write_csv(out, rows)
    results = {"csv": out, "rows": len(rows), "columns": list(rows[0].keys())}
    return results, {"grid": args.grid}, 0


def _cmd_demo(args, scale):
    # the verification suite brings scipy for its penalty oracle; load it
    # only when asked for
    from .demo import run_all

    names = set(args.only) if args.only else None
    rows = run_all(names)
    failed = [r["name"] for r in rows if not r["passed"]]
    for r in rows:
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: {r['detail']}")
    results = {"checks": rows, "failed": failed}
    return results, {}, 0 if not failed else 1


_DISPATCH = {
    "project": _cmd_project,
    "ck": _cmd_ck,
    "decompose": _cmd_decompose,
    "multiinfo": _cmd_multiinfo,
    "dims": _cmd_dims,
    "basis": _cmd_basis,
    "feasibility": _cmd_feasibility,
    "toric": _cmd_toric,
    "maximize": _cmd_maximize,
    "bell": _cmd_bell,
    "theorem1": _cmd_theorem1,
    "fig1": _cmd_fig1,
    "demo": _cmd_demo,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    # flags only the commands that read them take
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = argparse.ArgumentParser(prog="hiercorr", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("project", parents=[common, tol], help="maximum-entropy projection")
    sp.add_argument("--state", required=True)
    sp.add_argument("--hypergraph")
    sp.add_argument("--k", type=int)
    sp.add_argument("--method", default="auto", choices=METHODS)

    sp = sub.add_parser("ck", parents=[common, tol], help="order-k correlation")
    sp.add_argument("--state", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--method", default="auto", choices=METHODS)

    sp = sub.add_parser("decompose", parents=[common, tol], help="full correlation ladder")
    sp.add_argument("--state", required=True)

    sp = sub.add_parser("multiinfo", parents=[common], help="total correlation, closed form")
    sp.add_argument("--state", required=True)

    sp = sub.add_parser("dims", parents=[common], help="model dimensions")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--kind", default="classical")
    sp.add_argument("--hypergraph")
    sp.add_argument("--k", type=int)
    sp.add_argument("--certify", action="store_true",
                    help="also compute the numerical basis rank")

    sp = sub.add_parser("basis", parents=[common], help="unit matrix basis")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("feasibility", parents=[common], help="support feasibility")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--max-size", type=int, default=None)
    sp.add_argument("--support", help="configurations, e.g. 100,010,001")

    sp = sub.add_parser("toric", parents=[common], help="interaction matrix and kernel")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--state", help="check membership of this state's diagonal")

    sp = sub.add_parser("maximize", parents=[common, seed], help="search divergence maximizers")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--kind", default="classical")
    sp.add_argument("--hypergraph")
    sp.add_argument("--k", type=int)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--steps", type=int, default=200)

    sp = sub.add_parser("bell", parents=[common], help="two-qubit Bell-diagonal report")
    sp.add_argument("--t", help="three correlation coefficients a,b,c")
    sp.add_argument("--lambda", dest="lam", help="four Bell-line weights a,b,c,d")

    sp = sub.add_parser("theorem1", parents=[common, seed],
                        help="verify the separable information bound")
    sp.add_argument("--samples", type=int, default=10_000)

    sp = sub.add_parser("fig1", parents=[common], help="export the correlation geometry grid")
    sp.add_argument("--grid", type=int, default=9)

    sp = sub.add_parser("demo", parents=[common], help="run the verification suite")
    sp.add_argument("--only", action="append", help="restrict to named checks")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the tree costs far more than parsing; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    scale = LOG2 if args.bits else 1.0
    t0 = time.perf_counter()
    warnings = []
    tol = getattr(args, "tol", None)  # project, ck and decompose take --tol
    if tol is not None and tol > INTERIOR_TOL:
        warnings.append(f"non-standard tolerance {tol:g} (default {INTERIOR_TOL:g})")
    try:
        results, diagnostics, code = _DISPATCH[args.command](args, scale)
    except (ShapeError, HypergraphError, ValueError, GuardExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if warnings:
        diagnostics = dict(diagnostics)
        diagnostics["warnings"] = warnings
    config = {k: v for k, v in vars(args).items() if k != "command"}
    report = {
        "command": args.command,
        "config": config,
        "units": "bits" if args.bits else "nats",
        "results": results,
        "diagnostics": diagnostics,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    text = hio.dump_report(report)
    if args.command != "demo":  # demo prints its table instead
        print(text)
    # fig1 and toric spend --out on their CSV exports
    if args.out and args.command not in ("fig1", "toric"):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
