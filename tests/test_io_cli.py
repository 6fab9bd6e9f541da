import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hiercorr
from hiercorr import cli, demo, maximizers
from hiercorr.algebra import ShapeError, State, SystemShape, gibbs_with_log_partition
from hiercorr.cli import main
from hiercorr.hierarchy import build_model, hypergraph_k, model_dim
from hiercorr.maxent import GibbsParameters
from hiercorr.io import (
    dump_report,
    hypergraph_from_dict,
    hypergraph_to_dict,
    load_state,
    matrix_to_pairs,
    pairs_to_matrix,
    shape_from_dict,
    shape_to_dict,
    state_from_dict,
    state_to_dict,
    write_csv,
)
from hiercorr.states import ghz_state, random_density

LOG2 = math.log(2.0)


class TestShapeIO:
    def test_round_trip(self):
        shape = SystemShape((2, 3, 2), ("classical", "quantum", "classical"))
        assert shape_from_dict(shape_to_dict(shape)) == shape

    def test_bare_sizes_default_classical(self):
        shape = shape_from_dict({"sizes": [2, 2]})
        assert shape.all_classical

    def test_missing_sizes_rejected(self):
        with pytest.raises(ShapeError):
            shape_from_dict({"kinds": ["classical"]})


class TestMatrixPairs:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = pairs_to_matrix(matrix_to_pairs(m))
        assert np.max(np.abs(back - m)) < 1e-15

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            pairs_to_matrix([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            pairs_to_matrix([[[1.0, 0.0], [0.0, 0.0]]])


class TestStateIO:
    def test_classical_uses_probabilities(self):
        shape = SystemShape.bits(2)
        st = State.from_probabilities(shape, [0.1, 0.2, 0.3, 0.4])
        data = state_to_dict(st)
        assert "probabilities" in data and "matrix" not in data
        back = state_from_dict(data)
        assert np.max(np.abs(back.matrix - st.matrix)) < 1e-15

    def test_quantum_round_trip(self):
        st = ghz_state(2)
        data = state_to_dict(st)
        assert "matrix" in data
        back = state_from_dict(data)
        assert np.max(np.abs(back.matrix - st.matrix)) < 1e-15

    def test_both_payloads_rejected(self):
        data = state_to_dict(ghz_state(2))
        data["probabilities"] = [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(ShapeError):
            state_from_dict(data)

    def test_probabilities_need_classical_shape(self):
        with pytest.raises(ShapeError):
            state_from_dict(
                {"shape": {"sizes": [2], "kinds": ["quantum"]}, "probabilities": [0.5, 0.5]}
            )

    def test_bad_json_file_message_names_path(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ not json")
        with pytest.raises(ShapeError, match="broken.json"):
            load_state(str(p))


class TestHypergraphIO:
    def test_round_trip_generators(self):
        hg = hypergraph_k(3, 2)
        data = hypergraph_to_dict(hg)
        assert data["generators"] == [[1, 2], [1, 3], [2, 3]]
        assert hypergraph_from_dict(data) == hg

    def test_sets_key(self):
        hg = hypergraph_from_dict({"N": 2, "sets": [[], [1], [2]]})
        assert hg == hypergraph_k(2, 1)

    def test_exactly_one_key(self):
        with pytest.raises(ShapeError):
            hypergraph_from_dict({"N": 2, "generators": [[1, 2]], "sets": [[1]]})


class TestCSVAndReports:
    def test_nan_and_none_become_empty(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_csv(str(p), [{"a": 1, "b": float("nan")}, {"a": None, "b": 2.5}])
        lines = p.read_text().strip().splitlines()
        assert lines == ["a,b", "1,", ",2.5"]

    def test_numpy_types_serialize(self):
        text = dump_report(
            {"i": np.int64(3), "x": np.float64(0.5), "flag": np.bool_(True),
             "arr": np.arange(2), "z": 1 + 2j, "s": frozenset({2, 1})}
        )
        assert json.loads(text) == {
            "i": 3, "x": 0.5, "flag": True, "arr": [0, 1], "z": [1.0, 2.0], "s": [1, 2]
        }


@pytest.fixture()
def ghz_file(tmp_path):
    p = tmp_path / "ghz.json"
    p.write_text(json.dumps(state_to_dict(ghz_state(3))))
    return str(p)


def _report(capsys):
    return json.loads(capsys.readouterr().out)


def _fresh_env():
    """The environment of a fresh interpreter that imports this hiercorr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hiercorr.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("module", ["hiercorr", "hiercorr.cli"])
def test_import_loads_no_scipy(module):
    # scipy is for the demo's oracle and the tests; the library runs on numpy
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_runs_the_cli():
    # python -m hiercorr exits with the command's code
    env = _fresh_env()
    out = subprocess.run([sys.executable, "-m", "hiercorr", "theorem1", "--samples", "10"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["command"] == "theorem1"
    out = subprocess.run([sys.executable, "-m", "hiercorr", "dims", "--shape", "2,2", "--k", "0"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and out.stderr.startswith("error:")


class TestCLI:
    def test_parser_built_once_keeps_calls_apart(self, monkeypatch, capsys):
        seen = []

        def record(args, scale):
            seen.append(vars(args).copy())
            return {}, {}, 0

        monkeypatch.setitem(cli._DISPATCH, "decompose", record)
        monkeypatch.setitem(cli._DISPATCH, "project", record)
        assert main(["decompose", "--state", "a.json"]) == 0
        assert main(["project", "--state", "b.json", "--k", "2", "--tol", "1e-6"]) == 0
        assert main(["decompose", "--state", "c.json"]) == 0
        capsys.readouterr()
        assert cli._parser() is cli._parser()
        first, second, third = seen
        assert first == {"command": "decompose", "state": "a.json", "tol": None,
                         "out": None, "bits": False}
        assert second["command"] == "project" and second["state"] == "b.json"
        assert second["tol"] == 1e-6 and second["method"] == "auto" and second["k"] == 2
        assert third == dict(first, state="c.json")

    def test_ck_ghz_pairwise(self, ghz_file, capsys):
        code = main(["ck", "--state", ghz_file, "--k", "2", "--method", "newton"])
        rep = _report(capsys)
        assert code == 0
        assert abs(rep["results"]["value"] - LOG2) < 1e-3
        assert rep["units"] == "nats"

    def test_project_report_round_trips(self, ghz_file, capsys):
        code = main(["project", "--state", ghz_file, "--k", "1"])
        rep = _report(capsys)
        assert code == 0
        pi = state_from_dict(rep["results"]["projection"])
        assert np.max(np.abs(pi.matrix - np.eye(8) / 8.0)) < 1e-9
        assert rep["diagnostics"]["residual"] <= 1e-8

    @pytest.mark.parametrize("method, route", [("auto", "dual"), ("newton", "newton")],
                             ids=["auto", "newton"])
    def test_project_interior_reports_gibbs_parameters(self, method, route, tmp_path, capsys):
        rho = random_density(SystemShape.qubits(3), np.random.default_rng(7))
        path = tmp_path / "q3.json"
        path.write_text(json.dumps(state_to_dict(rho)))
        code = main(["project", "--state", str(path), "--k", "2", "--tol", "1e-9",
                     "--method", method])
        rep = _report(capsys)
        assert code == 0
        res = rep["results"]
        assert res["method"] == route and res["converged"] is True
        assert rep["config"]["tol"] == 1e-9 and rep["diagnostics"]["residual"] <= 1e-9
        diag = rep["diagnostics"]
        assert diag["gap"] == abs(diag["relative_entropy_direct"] - res["divergence"])
        assert "warnings" not in rep["diagnostics"]  # a tighter tolerance is standard
        model = build_model(rho.shape, hypergraph_k(3, 2))
        theta = np.array(res["theta"])
        assert theta.shape == (model.n_elements - 1,)
        assert res["log_partition"] == gibbs_with_log_partition(model.hamiltonian(theta))[1]
        pi = GibbsParameters(theta, res["log_partition"]).state(model)
        assert np.max(np.abs(pi.matrix - state_from_dict(res["projection"]).matrix)) <= 1e-12

    def test_project_bits_scale_the_direct_divergence(self, tmp_path, capsys):
        # every entropy of the report is in its unit: on q3 seed 0 at k=2 the
        # direct value was 0.248 nats beside a divergence of 0.358 bits
        rho = random_density(SystemShape.qubits(3), np.random.default_rng(0))
        path = tmp_path / "q3.json"
        path.write_text(json.dumps(state_to_dict(rho)))
        reps = {}
        for unit in ("nats", "bits"):
            assert main(["project", "--state", str(path), "--k", "2"]
                        + (["--bits"] if unit == "bits" else [])) == 0
            reps[unit] = _report(capsys)
        nats, bits = (reps[u]["diagnostics"] for u in ("nats", "bits"))
        assert reps["bits"]["results"]["divergence"] == reps["nats"]["results"]["divergence"] / LOG2
        for key in ("relative_entropy_direct", "gap"):
            assert bits[key] == nats[key] / LOG2
        gap = abs(bits["relative_entropy_direct"] - reps["bits"]["results"]["divergence"])
        assert bits["gap"] == pytest.approx(gap, rel=1e-6) and gap <= 1e-8

    def test_project_full_family_on_six_qubits(self, tmp_path, capsys):
        p = tmp_path / "q6.json"
        rho = random_density(SystemShape.qubits(6), np.random.default_rng(54))
        p.write_text(json.dumps(state_to_dict(rho)))
        code = main(["project", "--state", str(p), "--k", "6"])
        rep = _report(capsys)
        assert code == 0
        assert rep["results"]["method"] == "exact" and rep["results"]["divergence"] == 0.0

    def test_ck_at_the_full_order_is_exact(self, ghz_file, capsys):
        code = main(["ck", "--state", ghz_file, "--k", "3"])
        rep = _report(capsys)
        assert code == 0
        assert rep["results"] == {"k": 3, "value": 0.0, "exact": True}

    def test_out_writes_the_printed_report(self, ghz_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["multiinfo", "--state", ghz_file, "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert out.read_text() == printed
        assert json.loads(printed)["config"]["out"] == str(out)

    def test_shape_and_hypergraph_files(self, ghz_file, tmp_path, capsys):
        shape = SystemShape((2, 2, 2), ("quantum", "classical", "quantum"))
        shape_file, hg_file = tmp_path / "shape.json", tmp_path / "triangle.json"
        shape_file.write_text(json.dumps(shape_to_dict(shape)))
        hg_file.write_text(json.dumps(hypergraph_to_dict(hypergraph_k(3, 2))))
        code = main(["dims", "--shape", str(shape_file), "--hypergraph", str(hg_file),
                     "--certify"])
        rep = _report(capsys)
        assert code == 0
        assert rep["results"]["shape"] == shape_to_dict(shape)
        (row,) = rep["results"]["models"]
        assert row["generators"] == [[1, 2], [1, 3], [2, 3]]
        total, manifold = model_dim(shape, hypergraph_k(3, 2))
        assert (row["dim_total"], row["dim_model"], row["numerical_rank"]) == (total, manifold, total)
        code = main(["project", "--state", ghz_file, "--hypergraph", str(hg_file)])
        rep = _report(capsys)
        assert code == 0
        assert abs(rep["results"]["divergence"] - LOG2) < 1e-6
        assert rep["diagnostics"]["support_dim"] == 2
        hg_file.write_text(json.dumps(hypergraph_to_dict(hypergraph_k(2, 1))))
        code = main(["project", "--state", ghz_file, "--hypergraph", str(hg_file)])
        assert code == 2 and "2 units" in capsys.readouterr().err

    def test_bits_flag_scales(self, ghz_file, capsys):
        code = main(["multiinfo", "--state", ghz_file, "--bits"])
        rep = _report(capsys)
        assert code == 0
        assert abs(rep["results"]["multi_information"] - 3.0) < 1e-9
        assert rep["units"] == "bits"

    def test_multiinfo_on_twelve_bits_holds_no_dense_matrix(self, tmp_path, capsys):
        # one 4096 x 4096 complex matrix is 268 MB; the marginals and both
        # entropies are taken on the (d, 1, 1) block array
        p = np.random.default_rng(12).dirichlet(np.ones(2**12))
        path = tmp_path / "b12.json"
        path.write_text(json.dumps(state_to_dict(State.from_probabilities(SystemShape.bits(12), p))))
        tracemalloc.start()
        try:
            code = main(["multiinfo", "--state", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rep = _report(capsys)
        assert code == 0 and peak < 32 * 2**20
        t = p.reshape((2,) * 12)
        units = [t.sum(axis=tuple(j for j in range(12) if j != i)) for i in range(12)]
        want = sum(-(u * np.log(u)).sum() for u in units) + (p * np.log(p)).sum()
        assert abs(rep["results"]["multi_information"] - want) <= 1e-12

    def test_decompose(self, ghz_file, capsys):
        code = main(["decompose", "--state", ghz_file])
        rep = _report(capsys)
        assert code == 0
        c = rep["results"]["c"]
        assert abs(c[0] - 3 * LOG2) < 1e-6
        assert abs(rep["results"]["C"]["3"] - LOG2) < 1e-3

    def test_decompose_unreachable_tolerance_exits_3(self, ghz_file, capsys):
        # the order-1 product projection has full support and ~1e-17 of
        # rounding in its moments, which misses an interior tolerance of 1e-300
        code = main(["decompose", "--state", ghz_file, "--tol", "1e-300"])
        rep = _report(capsys)
        assert code == 3
        assert len(rep["diagnostics"]["residuals"]) == 3
        assert rep["diagnostics"]["residuals"][-1] == 0.0

    def test_feasibility_exhaustive(self, capsys):
        code = main(["feasibility", "--shape", "2,2,2", "--k", "2", "--exhaustive"])
        rep = _report(capsys)
        assert code == 0
        assert rep["results"]["by_size"]["2"] == {"total": 28, "feasible": 28}
        assert rep["results"]["min_nonfeasible_size"] == 3

    def test_feasibility_parity_support(self, capsys):
        code = main(["feasibility", "--shape", "2,2,2", "--k", "2",
                     "--support", "100,010,001"])
        rep = _report(capsys)
        assert code == 0 and rep["results"]["feasible"] is False

    def test_toric_csv(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code = main(["toric", "--shape", "2,2,2", "--k", "2", "--out", str(out)])
        rep = _report(capsys)
        assert code == 0
        assert rep["results"]["kernel"] == [[1, -1, -1, 1, -1, 1, 1, -1]]
        assert rep["results"]["csv"] == str(out)
        # the interaction matrix rows, then the kernel rows, as csv writes them
        moments = ["1,1,0,0,0,0,0,0", "0,0,1,1,0,0,0,0", "0,0,0,0,1,1,0,0", "0,0,0,0,0,0,1,1",
                   "1,0,1,0,0,0,0,0", "0,1,0,1,0,0,0,0", "0,0,0,0,1,0,1,0", "0,0,0,0,0,1,0,1",
                   "1,0,0,0,1,0,0,0", "0,1,0,0,0,1,0,0", "0,0,1,0,0,0,1,0", "0,0,0,1,0,0,0,1"]
        lines = ["row," + ",".join(f"x{j}" for j in range(8))]
        lines += [f"moment{i},{row}" for i, row in enumerate(moments)]
        lines += ["kernel0,1,-1,-1,1,-1,1,1,-1"]
        assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("probs, member", [
        (np.kron(np.kron([0.3, 0.7], [0.6, 0.4]), [0.2, 0.8]), True),
        ([0.25, 0, 0, 0.25, 0, 0.25, 0.25, 0], False),
    ], ids=["product", "even-parity"])
    def test_toric_membership_of_a_state(self, probs, member, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(state_to_dict(
            State.from_probabilities(SystemShape.bits(3), probs))))
        code = main(["toric", "--shape", "2,2,2", "--k", "2", "--state", str(path)])
        rep = _report(capsys)
        assert code == 0
        got = rep["results"]["membership"]
        assert got["is_member"] is member
        # one kernel vector: the parity state charges only its even side
        assert got["residuals"] == [0.0 if member else 1.0]
        assert got["zero_support_flags"] == [not member]

    def test_toric_state_of_another_shape_exits_2(self, ghz_file, capsys):
        code = main(["toric", "--shape", "2,2,2", "--k", "2", "--state", ghz_file])
        assert code == 2 and "disagrees" in capsys.readouterr().err

    def test_basis(self, capsys):
        code = main(["basis", "--n", "3"])
        rep = _report(capsys)
        assert code == 0
        res = rep["results"]
        assert res["n"] == 3 and len(res["fourier"]) == len(res["hermitian"]) == 9
        herm = np.stack([pairs_to_matrix(m) for m in res["hermitian"]])
        assert np.max(np.abs(herm - herm.conj().transpose(0, 2, 1))) <= 1e-15
        flat = herm.reshape(9, 9)
        assert np.max(np.abs(flat @ flat.conj().T - np.eye(9))) <= 1e-12
        assert rep["diagnostics"]["gram_deviation"] <= 1e-12

    def test_fig1_bits_scale_the_mutual_information(self, tmp_path, capsys):
        paths = {unit: tmp_path / f"{unit}.csv" for unit in ("nats", "bits")}
        assert main(["fig1", "--grid", "3", "--out", str(paths["nats"])]) == 0
        nats = _report(capsys)
        assert main(["fig1", "--grid", "3", "--bits", "--out", str(paths["bits"])]) == 0
        bits = _report(capsys)
        # four spectrum vertices, six separable extreme points, a 3^3 grid
        assert nats["results"]["rows"] == bits["results"]["rows"] == 37
        assert bits["results"]["csv"] == str(paths["bits"]) and bits["units"] == "bits"
        rows = {unit: list(csv.DictReader(p.open())) for unit, p in paths.items()}
        assert len(rows["nats"]) == 37 and rows["nats"][0].keys() == set(nats["results"]["columns"])
        scaled = 0
        for a, b in zip(rows["nats"], rows["bits"]):
            mi_a, mi_b = a.pop("mutual_information"), b.pop("mutual_information")
            assert a == b and (mi_a == "") == (mi_b == "")  # unphysical points stay empty
            if mi_a:
                assert float(mi_b) == float(mi_a) / LOG2
                scaled += 1
        assert scaled > 10

    def test_bell_charts_agree(self, capsys):
        code = main(["bell", "--t", "0.2,-0.1,0.3"])
        rep_t = _report(capsys)
        lam = ",".join(str(x) for x in rep_t["results"]["lambda"])
        code2 = main(["bell", "--lambda", lam])
        rep_l = _report(capsys)
        assert code == code2 == 0
        assert np.allclose(rep_t["results"]["t"], rep_l["results"]["t"], atol=1e-9)
        assert rep_t["results"]["separable"] is True

    def test_dims_certify(self, capsys):
        code = main(["dims", "--shape", "2,2", "--kind", "quantum", "--certify"])
        rep = _report(capsys)
        assert code == 0
        ranks = {(m["dim_total"], m["numerical_rank"]) for m in rep["results"]["models"]}
        assert ranks == {(7, 7), (16, 16)}

    def test_dims_certify_every_qutrit_model(self, capsys):
        code = main(["dims", "--shape", "3,3,3,3", "--kind", "quantum", "--certify"])
        rows = _report(capsys)["results"]["models"]
        assert code == 0
        assert len(rows) == 114
        assert all(row["numerical_rank"] == row["dim_total"] for row in rows)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["ck", "--state", str(tmp_path / "nope.json"), "--k", "1"])
        capsys.readouterr()
        assert code == 2

    # each flag belongs to the commands that read it
    @pytest.mark.parametrize("argv", [
        ["maximize", "--shape", "2,2", "--k", "1", "--tol", "1e-6"],
        ["theorem1", "--samples", "10", "--tol", "1e-6"],
        ["multiinfo", "--state", "rho.json", "--seed", "1"],
        ["decompose", "--state", "rho.json", "--seed", "1"],
        ["basis", "--n", "2", "--seed", "1"],
        ["feasibility", "--shape", "2,2,2", "--k", "2", "--exhaustive", "--kind", "classical"],
        ["toric", "--shape", "2,2,2", "--k", "2", "--kind", "classical"],
    ], ids=["maximize-tol", "theorem1-tol", "multiinfo-seed", "decompose-seed", "basis-seed",
            "feasibility-kind", "toric-kind"])
    def test_flag_of_another_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_conflicting_family_flags_exit_2(self, ghz_file, capsys):
        code = main(["project", "--state", ghz_file])
        capsys.readouterr()
        assert code == 2

    def test_maximize_small(self, capsys):
        code = main(["maximize", "--shape", "2,2", "--k", "1", "--restarts", "4"])
        rep = _report(capsys)
        assert code == 0
        assert abs(rep["results"]["records"][0]["value"] - LOG2) < 1e-6
        assert rep["results"]["bound"]["proven"] is True

    def test_maximize_mixed_shape(self, capsys):
        code = main(["maximize", "--shape", "2,2", "--kind", "classical,quantum", "--k", "1",
                     "--restarts", "4"])
        rep = _report(capsys)
        assert code == 0
        assert abs(rep["results"]["records"][0]["value"] - LOG2) < 1e-6
        assert rep["results"]["bound"]["argument"] == "conservative"
        assert rep["diagnostics"]["projection_failures"] == 0

    def test_maximize_exits_3_on_projection_failures(self, monkeypatch, capsys):
        project = maximizers.maxent_project

        def unconverged(rho, model):
            return dataclasses.replace(project(rho, model), converged=False)

        monkeypatch.setattr(maximizers, "maxent_project", unconverged)
        code = main(["maximize", "--shape", "2,2", "--k", "1", "--restarts", "2"])
        diagnostics = _report(capsys)["diagnostics"]
        assert code == 3
        assert diagnostics["projection_failures"] == diagnostics["evaluations"] > 0

    def test_demo_subset(self, capsys):
        code = main(["demo", "--only", "parity-kernel"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] parity-kernel" in out

    def test_demo_exits_1_on_a_failed_check(self, monkeypatch, capsys):
        failing = [(name, (lambda: (False, "forced failure")) if name == "parity-kernel" else fn)
                   for name, fn in demo.CRITERIA]
        monkeypatch.setattr(demo, "CRITERIA", failing)
        code = main(["demo", "--only", "parity-kernel"])
        assert code == 1
        assert "[FAIL] parity-kernel: forced failure" in capsys.readouterr().out

    def test_theorem1_exits_1_on_a_failed_verification(self, monkeypatch, capsys):
        verify = cli.verify_mutual_information_bound
        monkeypatch.setattr(cli, "verify_mutual_information_bound",
                            lambda **kw: {**verify(**kw), "violations": 1, "passed": False})
        code = main(["theorem1", "--samples", "20"])
        assert code == 1
        assert _report(capsys)["results"]["verification"]["passed"] is False

    def test_nonstandard_tolerance_flagged(self, ghz_file, capsys):
        code = main(["ck", "--state", ghz_file, "--k", "1", "--tol", "0.1"])
        rep = _report(capsys)
        assert code == 0
        assert any("non-standard" in w for w in rep["diagnostics"]["warnings"])

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_out_of_range_tolerance_exits_2(self, ghz_file, tol, capsys):
        # inf passed as converged after 0 iterations, 0 and -1 ran both
        # routes to their step caps, nan ended after 0 iterations
        code = main(["project", "--state", ghz_file, "--k", "2", f"--tol={tol}"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == "" and "tol must be finite and positive" in out.err

    def test_determinism(self, ghz_file, capsys):
        main(["theorem1", "--samples", "200"])
        first = _report(capsys)
        main(["theorem1", "--samples", "200"])
        second = _report(capsys)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second
