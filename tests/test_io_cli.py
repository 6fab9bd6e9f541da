import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hiercorr
from hiercorr import cli
from hiercorr.algebra import ShapeError, State, SystemShape
from hiercorr.cli import main
from hiercorr.hierarchy import hypergraph_k
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


@pytest.mark.parametrize("module", ["hiercorr", "hiercorr.cli"])
def test_import_loads_no_scipy(module):
    # scipy is for the demo's oracle and the tests; the library runs on numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(hiercorr.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


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
        assert first == {"command": "decompose", "state": "a.json", "seed": 0, "tol": None,
                         "out": None, "bits": False}
        assert second["command"] == "project" and second["state"] == "b.json"
        assert second["tol"] == 1e-6 and second["method"] == "auto" and second["k"] == 2
        assert third == dict(first, state="c.json")

    def test_ck_ghz_pairwise(self, ghz_file, capsys):
        code = main(["ck", "--state", ghz_file, "--k", "2", "--method", "primal"])
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

    def test_project_full_family_on_six_qubits(self, tmp_path, capsys):
        p = tmp_path / "q6.json"
        rho = random_density(SystemShape.qubits(6), np.random.default_rng(54))
        p.write_text(json.dumps(state_to_dict(rho)))
        code = main(["project", "--state", str(p), "--k", "6"])
        rep = _report(capsys)
        assert code == 0
        assert rep["results"]["method"] == "exact" and rep["results"]["divergence"] == 0.0

    def test_bits_flag_scales(self, ghz_file, capsys):
        code = main(["multiinfo", "--state", ghz_file, "--bits"])
        rep = _report(capsys)
        assert code == 0
        assert abs(rep["results"]["multi_information"] - 3.0) < 1e-9
        assert rep["units"] == "bits"

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
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("row,x0")
        assert lines[-1].split(",")[0] == "kernel0"

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

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["ck", "--state", str(tmp_path / "nope.json"), "--k", "1"])
        capsys.readouterr()
        assert code == 2

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

    def test_demo_subset(self, capsys):
        code = main(["demo", "--only", "parity-kernel"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] parity-kernel" in out

    def test_nonstandard_tolerance_flagged(self, ghz_file, capsys):
        code = main(["ck", "--state", ghz_file, "--k", "1", "--tol", "0.1"])
        rep = _report(capsys)
        assert code == 0
        assert any("non-standard" in w for w in rep["diagnostics"]["warnings"])

    def test_determinism(self, ghz_file, capsys):
        main(["theorem1", "--samples", "200"])
        first = _report(capsys)
        main(["theorem1", "--samples", "200"])
        second = _report(capsys)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second
