import json

import numpy as np
import pytest

from nonmarkov import cli
from nonmarkov.analysis import empirical_dependency, reachable_histories
from nonmarkov.cli import main, reversibility_report
from nonmarkov.core import mdp_to_json
from nonmarkov.envs import make_chain
from nonmarkov.wrappers import as_nmdp_oracle


class TestReversibilityReport:
    def test_passes_quick(self):
        report = reversibility_report(seed=0, trajectories=50)
        assert report["pass"]
        assert report["max_error"] <= 1e-6
        assert report["cases"] == 50 * report["families"]


class TestVerifySubcommands:
    def test_verify_reversibility_exit0(self, capsys):
        assert main(["verify-reversibility", "--trajectories", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_category_exit0(self, capsys):
        assert main(["verify-category", "--env", "chain:5", "--horizon", "4"]) == 0

    def test_verify_category_json_schema(self, capsys):
        assert main(["verify-category", "--env", "chain:3", "--horizon", "2",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["violations"] == []

    def test_verify_morphism(self, tmp_path, capsys):
        m = make_chain(3)
        p1 = tmp_path / "m.json"
        p1.write_text(json.dumps(mdp_to_json(m)))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({
            "phi_S": [0, 1, 2], "phi_A": [0, 1],
            "phi_R": {"0.0": 0.0, "1.0": 1.0},
        }))
        assert main(["verify-morphism", "--m", str(p1), "--m2", str(p1),
                     "--map", str(mapping)]) == 0

    def test_verify_morphism_failure_exit1(self, tmp_path):
        m = make_chain(3)
        p1 = tmp_path / "m.json"
        p1.write_text(json.dumps(mdp_to_json(m)))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({
            "phi_S": [0, 0, 0], "phi_A": [0, 1],
            "phi_R": {"0.0": 0.0, "1.0": 1.0},
        }))
        assert main(["verify-morphism", "--m", str(p1), "--m2", str(p1),
                     "--map", str(mapping)]) == 1

    def test_verify_morphism_missing_field_exit2(self, tmp_path, capsys):
        m = make_chain(3)
        p1 = tmp_path / "m.json"
        p1.write_text(json.dumps(mdp_to_json(m)))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"phi_S": [0, 1, 2]}))
        assert main(["verify-morphism", "--m", str(p1), "--m2", str(p1),
                     "--map", str(mapping)]) == 2


class TestAnalyzeDeps:
    def test_difference_t3(self, capsys):
        assert main(["analyze-deps", "--env", "chain:5", "--wrapper", "D^1",
                     "--t", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dependency"]["indices"] == [0, 1, 2, 3]
        assert report["match"] is True

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "dep.json"
        assert main(["analyze-deps", "--env", "chain:5", "--wrapper", "S^1",
                     "--t", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dependency"]["indices"] == [1, 2]

    def test_bad_wrapper_exit2(self):
        assert main(["analyze-deps", "--env", "chain:5", "--wrapper", "Z^1",
                     "--t", "2"]) == 2

    def test_undecodable_counts_reported(self, capsys):
        assert main(["analyze-deps", "--env", "chain:5", "--wrapper", "D^1",
                     "--t", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        m = make_chain(5)
        oracle = as_nmdp_oracle(m, "D^1")
        counts = [empirical_dependency(oracle, h, list(m.embedding)).undecodable
                  for h in reachable_histories(oracle, max_t=3) if h.t == 3]
        assert report["undecodable"] == counts == [0, 3, 1, 3, 1, 2, 2, 3]


class TestRunSweepPlot:
    def test_run_cell(self, capsys):
        assert main(["run", "--env", "chain:5", "--wrapper", "id",
                     "--agent", "qwin:1", "--episodes", "100",
                     "--eval-episodes", "10", "--horizon", "6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_return"] > 0

    def test_sweep_then_plot(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        svg_path = tmp_path / "r.svg"
        assert main(["sweep", "--env", "chain:5", "--wrapper", "S^0",
                     "--wrapper", "S^1", "--agent", "qwin:1",
                     "--seeds", "0,1", "--episodes", "50",
                     "--eval-episodes", "10", "--horizon", "6",
                     "--workers", "1", "--out", str(csv_path)]) == 0
        assert csv_path.exists()
        assert main(["plot", "--in", str(csv_path), "--out", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

    def test_sweep_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "envs": ["chain:5"], "wrappers": ["id"], "agents": ["random"],
            "seeds": [0], "episodes": 5, "eval_episodes": 5, "horizon": 4,
        }))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 2

    def test_sweep_missing_grid_exit2(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "r.csv")]) == 2

    def test_plot_missing_input_exit2(self, tmp_path):
        assert main(["plot", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "p.svg")]) == 2

    def test_nmf_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NMF_WORKERS", "2")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--env", "chain:5", "--wrapper", "id",
                     "--agent", "random", "--seeds", "0", "--episodes", "5",
                     "--eval-episodes", "5", "--horizon", "4",
                     "--out", str(out)]) == 0


def _sweep_args(out):
    return ["sweep", "--env", "chain:5", "--wrapper", "id", "--agent", "random",
            "--seeds", "0", "--episodes", "5", "--eval-episodes", "5",
            "--horizon", "4", "--out", str(out)]


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestBadInputExit2:
    def test_nmf_workers_not_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NMF_WORKERS", "abc")
        assert main(_sweep_args(tmp_path / "r.csv")) == 2
        _assert_one_line_error(capsys)

    def test_workers_below_one(self, tmp_path, capsys):
        assert main(_sweep_args(tmp_path / "r.csv") + ["--workers", "0"]) == 2
        _assert_one_line_error(capsys)

    def test_seeds_not_integer(self, tmp_path, capsys):
        args = _sweep_args(tmp_path / "r.csv")
        args[args.index("--seeds") + 1] = "0,x"
        assert main(args) == 2
        _assert_one_line_error(capsys)

    def test_sweep_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"envs": ["chain:5"], "wrappers": ["id"],
                                   "agents": ["random"], "bogus": 1}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("bad", [{"seeds": ["x"]}, {"episodes": "abc"}])
    def test_sweep_config_bad_value(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"envs": ["chain:5"], "wrappers": ["id"],
                                   "agents": ["random"], **bad}))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        _assert_one_line_error(capsys)
        assert not out.exists()

    def test_sweep_config_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"envs": ["chain:5"],\n broken}')
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["analyze-deps", "--wrapper", "S^x", "--t", "2"],
        ["analyze-deps", "--wrapper", "S_l:abc", "--t", "2"],
        ["verify-category", "--env", "chain:x"],
        ["run", "--agent", "qwin:x", "--episodes", "5", "--eval-episodes", "5"],
    ])
    def test_malformed_number_in_grammar(self, argv, capsys):
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["run", "--wrapper", "conv:nan", "--episodes", "5", "--eval-episodes", "5"],
        ["run", "--wrapper", "corr:inf,1,1", "--episodes", "5", "--eval-episodes", "5"],
        ["analyze-deps", "--wrapper", "conv:nan", "--t", "2"],
    ])
    def test_non_finite_filter_coefficient(self, argv, capsys):
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("wrapper", ["conv:0.5,0.9", "conv:1,-1.5"])
    def test_unstable_decoder(self, wrapper, capsys):
        argv = ["run", "--wrapper", wrapper, "--episodes", "5", "--eval-episodes", "5"]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_histories_below_one(self, value, capsys):
        argv = ["analyze-deps", "--wrapper", "S^1", "--t", "2", "--max-histories", value]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    def test_state_explosion(self, monkeypatch, capsys):
        # the default cap of 100,000 histories takes seconds to reach; a cap of
        # 50 takes the same path
        monkeypatch.setattr(cli, "reachable_histories",
                            lambda oracle, max_t: reachable_histories(oracle, max_t, cap=50))
        argv = ["analyze-deps", "--env", "random:1:4:2:2", "--wrapper", "S^1", "--t", "9"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: state explosion: history cap 50 reached at t=2 of horizon 9, "
                       "50 interned\n")

    def test_agent_field_past_bins(self, capsys):
        argv = ["run", "--agent", "qwin:1:2:3", "--episodes", "5", "--eval-episodes", "5"]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    def test_sweep_malformed_wrapper_before_any_cell(self, tmp_path, capsys):
        args = _sweep_args(tmp_path / "r.csv")
        args[args.index("--wrapper") + 1] = "S^x"
        assert main(args) == 2
        _assert_one_line_error(capsys)
        assert not (tmp_path / "r.csv").exists()

    def test_verify_morphism_ragged_embedding(self, tmp_path, capsys):
        data = mdp_to_json(make_chain(3))
        data["embedding"][1] = [0.0, 1.0]
        p1 = tmp_path / "m.json"
        p1.write_text(json.dumps(data))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"phi_S": [0, 1, 2], "phi_A": [0, 1],
                                       "phi_R": {"0.0": 0.0, "1.0": 1.0}}))
        assert main(["verify-morphism", "--m", str(p1), "--m2", str(p1),
                     "--map", str(mapping)]) == 2
        _assert_one_line_error(capsys)


class TestUsageErrors:
    def test_unknown_subcommand_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-category", "--bogus"])
        assert exc.value.code == 2
