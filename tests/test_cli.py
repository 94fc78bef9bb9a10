import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nonmarkov import analysis, cli, envs
from nonmarkov.analysis import empirical_dependency, reachable_histories
from nonmarkov.cli import main, reversibility_report
from nonmarkov.core import ValidationError, mdp_to_json
from nonmarkov.envs import make_chain, make_mdp_from_id
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

    @pytest.mark.parametrize("env, checked", [("chain:5", 1), ("random:1:4:2", 4)])
    @pytest.mark.parametrize("wrapper", ["S^0", "S^2", "D^1", "S_l:0.5", "conv:1,-0.5",
                                         "corr:1,2"])
    def test_t_zero_checks_the_initial_histories(self, env, checked, wrapper, capsys):
        assert main(["analyze-deps", "--env", env, "--wrapper", wrapper,
                     "--t", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dependency"]["indices"] == [0]
        assert report["match"] is True and report["histories_checked"] == checked

    @pytest.mark.parametrize("env, wrapper, indices", [
        ("chain:5", "conv:1,0,0.5", [0, 1, 2, 3, 4]), ("chain:5", "conv:1,-1,1", [0, 1, 2, 3, 4]),
        ("chain:5", "conv:1,-1,0.5", [0, 1, 2, 3, 4]),
        ("chain:5:0.3", "corr:1,2,3,4,5,6+S^1", [2, 3, 4])])
    def test_offset_positions_predicted(self, env, wrapper, indices, capsys):
        # row t+1 of the decoder, the next aggregate's offset, fills row t's interior zeros
        assert main(["analyze-deps", "--env", env, "--wrapper", wrapper, "--t", "4"]) == 0
        assert capsys.readouterr().out == (
            f"dependency at t=4 for {wrapper} on {env}: indices {indices}, match=True\n")

    def test_gain_after_another_stage_exit2(self, capsys):
        assert main(["analyze-deps", "--wrapper", "S^1+corr:1,2,3,4,5,6", "--t", "3"]) == 2
        assert capsys.readouterr().err == ("error: no analytical dependency form for "
                                           "'S^1+corr:1,2,3,4,5,6': a gain after another stage\n")

    def test_max_histories_past_sys_maxsize(self, capsys):
        # a walk interns at most HISTORY_CAP histories, so a larger bound is the cap:
        # an islice stop past sys.maxsize would raise ValueError
        outputs = []
        for bound in ("99999999999999999999", "64"):
            for extra in ([], ["--json"]):
                assert main(["analyze-deps", "--wrapper", "S^1", "--t", "3",
                             "--max-histories", bound, *extra]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]
        assert json.loads(outputs[1])["histories_checked"] == 8


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
        missing = f"mdp-file:{tmp_path / 'missing.json'}"
        assert main(["sweep", "--env", "chain:5", "--env", missing, "--wrapper", "S^0",
                     "--wrapper", "S^1", "--agent", "qwin:1",
                     "--seeds", "0,1", "--episodes", "50",
                     "--eval-episodes", "10", "--horizon", "6",
                     "--workers", "1", "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert sum("error:" in line for line in lines) == 4  # every cell of the missing file
        assert main(["plot", "--in", str(csv_path), "--out", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")
        # the plot skips the error rows: it equals the plot of the ok rows alone
        ok_path = tmp_path / "ok.csv"
        ok_path.write_text("\n".join(line for line in lines if "error:" not in line) + "\n")
        assert main(["plot", "--in", str(ok_path), "--out", str(tmp_path / "ok.svg")]) == 0
        assert svg_path.read_text() == (tmp_path / "ok.svg").read_text()

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

    def test_nmf_workers_env(self, tmp_path):
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for workers, out in zip(("1", "2"), outs):
            assert main(["sweep", "--env", "chain:5", "--wrapper", "id",
                         "--agent", "random", "--seeds", "0,1", "--episodes", "5",
                         "--eval-episodes", "5", "--horizon", "4", "--workers", workers,
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("config, flag, expected", [
        ({"workers": 1}, [], 1), ({"workers": 3}, [], 3), ({}, [], 1),
        ({"workers": 1}, ["--workers", "2"], 2), (None, [], os.cpu_count() or 1),
        (None, ["--workers", "2"], 2)])
    def test_sweep_workers_precedence(self, config, flag, expected, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg, out_path: seen.append(cfg.workers))
        out = str(tmp_path / "r.csv")
        if config is None:
            argv = _sweep_args(out)
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"envs": ["chain:5"], "wrappers": ["id"],
                                        "agents": ["random"], **config}))
            argv = ["sweep", "--config", str(path), "--out", out]
        assert main(argv + flag) == 0
        assert seen == [expected]


def _sweep_args(out):
    return ["sweep", "--env", "chain:5", "--wrapper", "id", "--agent", "random",
            "--seeds", "0", "--episodes", "5", "--eval-episodes", "5",
            "--horizon", "4", "--out", str(out)]


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestTabularSizeCap:
    """A built-in id past envs.MAX_CELLS exits 2 before anything is allocated.  The cap is
    lowered here, so no test depends on its default."""

    @pytest.mark.parametrize("argv", [
        ["verify-category", "--env", "random:1:9999999999999999999999999:2:2"],
        ["run", "--env", "random:1:3:99999999999999999999:2", "--episodes", "2",
         "--eval-episodes", "1"],
        ["verify-category", "--env", "chain:99999999999999999999"],
    ], ids=["states", "actions", "chain"])
    def test_oversize_id_exits_2(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(envs, "MAX_CELLS", 21)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[2]}: ") and err.endswith(
            "is larger than envs.MAX_CELLS = 21 table entries\n")

    def test_cap_counts_embedding_and_outcomes(self, monkeypatch):
        # chain:3 has 3 x (3 + 2 x 2) = 21 entries, random:1:3:2:5 3 x (3 + 2 x 3) = 27
        monkeypatch.setattr(envs, "MAX_CELLS", 21)
        assert make_mdp_from_id("chain:3").num_states == 3
        for env_id, shape in (("chain:4", "4 states x 2 actions"),
                              ("random:1:3:2:5", "3 states x 2 actions")):
            with pytest.raises(ValidationError, match=f"^{env_id}: {shape} is larger"):
                make_mdp_from_id(env_id)
        monkeypatch.setattr(envs, "MAX_CELLS", 27)
        assert make_mdp_from_id("random:1:3:2:5").num_states == 3


class TestBadInputExit2:
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

    @pytest.mark.parametrize("bad", [{"seeds": ["x"]}, {"episodes": "abc"},
                                     {"seeds": [-2]}])
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

    @pytest.mark.parametrize("argv", [
        ["run", "--wrapper", "S^100000000", "--episodes", "5", "--eval-episodes", "5"],
        ["analyze-deps", "--wrapper", "D^100000", "--t", "2"],
        ["sweep", "--env", "chain:5", "--wrapper", "S^100000000", "--agent", "random",
         "--out", "r.csv"],
    ])
    def test_huge_power_exits_at_once(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        _assert_one_line_error(capsys)
        assert not (tmp_path / "r.csv").exists()

    def test_power_overflow_names_the_spec(self, capsys):
        assert main(["run", "--wrapper", "S^1030", "--episodes", "5",
                     "--eval-episodes", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: S^1030: (1 - z)^1030 overflows float64 past n = 1,029; "
            "filter coefficients must be finite\n")

    def test_reward_only_atom_is_not_a_wrapper(self, capsys):
        assert main(["run", "--wrapper", "sum", "--episodes", "5", "--eval-episodes", "5"]) == 2
        assert capsys.readouterr().err == "error: cannot parse functor spec 'sum'\n"

    @pytest.mark.parametrize("wrapper", ["conv:0.5,0.9", "conv:1,-1.5"])
    def test_unstable_decoder(self, wrapper, capsys):
        argv = ["run", "--wrapper", wrapper, "--episodes", "5", "--eval-episodes", "5"]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_trajectories_below_one(self, value, capsys):
        assert main(["verify-reversibility", "--trajectories", value]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_horizon_below_one(self, value, capsys):
        assert main(["run", "--horizon", value, "--episodes", "5", "--eval-episodes", "5"]) == 2
        _assert_one_line_error(capsys)

    def test_eval_episodes_below_one(self, capsys):
        assert main(["run", "--eval-episodes", "0", "--episodes", "5"]) == 2
        assert capsys.readouterr().err == "error: eval_episodes must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-1", "--episodes", "5", "--eval-episodes", "5"],
        ["verify-reversibility", "--seed", "-1", "--trajectories", "5"],
        ["verify-category", "--env", "random:-1:4:2"],
        ["analyze-deps", "--env", "random:-1:4:2", "--wrapper", "S^1", "--t", "1"],
        ["run", "--env", "random:-1:4:2", "--episodes", "5", "--eval-episodes", "5"],
        ["sweep", "--env", "chain:5", "--wrapper", "id", "--agent", "random",
         "--seeds", "0,-1", "--out", "r.csv"],
    ])
    def test_negative_seed(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        _assert_one_line_error(capsys)
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_histories_below_one(self, value, capsys):
        argv = ["analyze-deps", "--wrapper", "S^1", "--t", "2", "--max-histories", value]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("t", ["100000", "30000000"])
    def test_t_past_the_history_cap_exits_at_once(self, t, capsys):
        # a history at t is the last of t + 1 interned ones, so the walk could never
        # reach it; no series is computed and no history walked
        start = time.perf_counter()
        assert main(["analyze-deps", "--wrapper", "S^2", "--t", t]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: --t must be below the history cap 100000, got {t}\n")

    def test_t_at_the_history_cap_boundary(self, tmp_path, monkeypatch, capsys):
        # one action on a deterministic 2-cycle: one history per t, so t=4 is the fifth
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "num_states": 2, "num_actions": 1, "rho0": [1, 0], "embedding": [[0], [1]],
            "outcomes": [[[{"next": 1, "reward": 0, "prob": 1}]],
                         [[{"next": 0, "reward": 1, "prob": 1}]]]}))
        monkeypatch.setattr(analysis, "HISTORY_CAP", 5)
        argv = ["analyze-deps", "--env", f"mdp-file:{path}", "--wrapper", "S^2", "--t"]
        assert main([*argv, "4"]) == 0
        assert main([*argv, "5"]) == 2
        assert capsys.readouterr().err == "error: --t must be below the history cap 5, got 5\n"

    @pytest.mark.parametrize("argv, message", [
        (["--wrapper", "Z^1"], "cannot parse functor spec 'Z^1'"),
        (["--wrapper", "S^2", "--max-histories", "0"], "--max-histories must be >= 1, got 0"),
        (["--wrapper", "S^2", "--env", "nowhere:1"], None),
    ])
    def test_earlier_errors_keep_their_message_past_the_cap(self, argv, message, capsys):
        assert main(["analyze-deps", "--t", "30000000", *argv]) == 2
        err = capsys.readouterr().err
        assert "history cap" not in err and err.startswith("error: ")
        assert message is None or err == f"error: {message}\n"

    def test_state_explosion(self, monkeypatch, capsys):
        # the default cap of 100,000 histories takes seconds to reach; a cap of
        # 50 takes the same path
        monkeypatch.setattr(analysis, "HISTORY_CAP", 50)
        argv = ["analyze-deps", "--env", "random:1:4:2:2", "--wrapper", "S^1", "--t", "9"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: state explosion: history cap 50 reached at t=2 of horizon 9, "
                       "50 interned\n")

    def test_walk_and_t_read_one_history_cap(self, monkeypatch, capsys):
        # both read analysis.HISTORY_CAP when they run, not a copy taken at import
        monkeypatch.setattr(analysis, "HISTORY_CAP", 7)
        oracle = as_nmdp_oracle(make_chain(5), "S^1")
        with pytest.raises(analysis.StateExplosionError,
                           match=r"^state explosion: history cap 7 reached at t=3 of horizon 3, "
                                 r"7 interned$"):
            list(reachable_histories(oracle, max_t=3))
        assert main(["analyze-deps", "--wrapper", "S^1", "--t", "7"]) == 2
        assert capsys.readouterr().err == "error: --t must be below the history cap 7, got 7\n"

    @pytest.mark.parametrize("argv, message", [
        (["--t", "3"], "analyze-deps needs >= 2 states, random:1:1:1:1 has 1"),
        (["--t", "0"], "analyze-deps needs >= 2 states, random:1:1:1:1 has 1"),
        (["--t", "30000000"], "--t must be below the history cap 100000, got 30000000"),
        (["--t", "3", "--max-histories", "0"], "--max-histories must be >= 1, got 0"),
    ])
    def test_one_state_process(self, argv, message, capsys):
        # one state leaves nothing to substitute, so no dependency could ever be seen;
        # the check comes after the others, which keep their messages
        assert main(["analyze-deps", "--env", "random:1:1:1:1", "--wrapper", "S^2", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_plot_non_finite_value(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("env,wrapper_family,param,agent,seed,mean_return,std_return,episodes,"
                        "status,wall_ms\nchain:5,S,1,qwin:1,0,nan,0,100,ok,0\n")
        assert main(["plot", "--in", str(path), "--out", str(tmp_path / "p.svg")]) == 2
        _assert_one_line_error(capsys)
        assert not (tmp_path / "p.svg").exists()

    def test_window_longer_than_an_episode(self, capsys):
        argv = ["run", "--agent", "qwin:10", "--horizon", "8", "--episodes", "5",
                "--eval-episodes", "5"]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

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

    def test_sweep_malformed_agent_before_any_cell(self, tmp_path, capsys):
        # the bad agent's cells used to become error:ValidationError rows, exit 0
        args = _sweep_args(tmp_path / "r.csv")
        args[args.index("--agent") + 1:args.index("--agent") + 2] = ["bad", "--agent", "qwin:1"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: cannot parse agent spec 'bad'\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv, t", [
        (["--env", "random:1:4:2:2", "--wrapper", "S^40", "--t", "6", "--max-histories", "2"], 6),
        (["--wrapper", "corr:1e-5,1e5,1e-5,1e5", "--t", "3"], 2),
    ])
    def test_undecodable_history(self, argv, t, capsys):
        # the walk's UndecodableHistoryError used to escape as a traceback, exit 1
        assert main(["analyze-deps", *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: decoded state at t={t} matches no embedded state\n"

    @pytest.mark.parametrize("wrapper", ["conv:1e308,1e308", "S^1+corr:1e308,1e308,1e308"])
    def test_filter_overflow(self, wrapper, capsys):
        # the wrapped reset would emit [inf, -1.11e308, ...]: the run stops instead
        stage = wrapper.split("+")[-1]  # the stage that overflows names itself
        env = ["--env", "random:1:3:2:2"]
        with np.errstate(over="ignore"):
            assert main(["run", *env, "--wrapper", wrapper, "--episodes", "20",
                         "--eval-episodes", "2", "--horizon", "3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: filter {stage[:5]}") and "overflows float64" in err
            # a chain with corr has no analytical form, so the check runs the stage alone
            assert main(["analyze-deps", *env, "--wrapper", stage, "--t", "2"]) == 2
            assert capsys.readouterr().err == (
                f"error: filter {stage} overflows float64: an aggregate is not finite\n")

    def test_filter_overflow_is_one_stderr_line(self):
        # numpy's RuntimeWarning, with the source line of Filter.push, used to come first
        run = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "run", "--env", "random:1:3:2:2",
             "--wrapper", "conv:1e308,1e308", "--episodes", "5", "--eval-episodes", "2"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})  # this import path
        assert run.returncode == 2
        assert run.stderr == ("error: filter conv:1e308,1e308 overflows float64: "
                              "an aggregate is not finite\n")

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


    @pytest.mark.parametrize("where, value", [(("num_states",), "x"), (("rho0",), "ab"),
                                              (("outcomes", 0, 0, 0, "next"), "a"),
                                              (("outcomes", 0, 0, 0, "next"), 1.7),
                                              (("outcomes", 0, 0, 0, "next"), True),
                                              (("outcomes", 0, 0, 0, "reward"), 10 ** 400),
                                              (("num_states",), float("inf")),
                                              (("num_actions",), 2.9),
                                              (("num_states",), "3"),
                                              (("outcomes", 0, 0, 0, "reward"), "1"),
                                              (("outcomes", 0, 0, 0, "prob"), True),
                                              (("rho0",), ["1", "0", "0"]),
                                              (("embedding",), [["0"], ["1"], ["2"]]),
                                              (("embedding",), [[True], [False], [False]])])
    def test_malformed_mdp_file(self, where, value, tmp_path, capsys):
        data = mdp_to_json(make_chain(3))
        target = data
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert main(["verify-category", "--env", f"mdp-file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {where[0]}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [["verify-category", "--horizon", "2"],
                                         ["run", "--episodes", "2", "--eval-episodes", "1"]])
    @pytest.mark.parametrize("field", ["prob", "reward"])
    def test_nan_in_mdp_file(self, command, field, tmp_path, capsys):
        # json.load accepts NaN: verify-category used to print FAIL and exit 1,
        # and run died with an IndexError traceback
        data = mdp_to_json(make_chain(2))
        data["outcomes"][0][1][0][field] = float("nan")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert main(command + ["--env", f"mdp-file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: state 0, action 1: "
                       "non-finite reward or probability\n"), err

    @pytest.mark.parametrize("bad", [{"phi_R": [0.0, 1.0]}, {"phi_R": {"a": 0.0}},
                                     {"phi_S": [0, "x", 2]}, {"phi_S": [0, 2.5, 2]},
                                     {"phi_A": None},
                                     {"phi_R": {"0.0": "0", "1.0": 1.0}},
                                     {"phi_R": {"0.0": 0.0, "1.0": True}},
                                     {"phi_R": {"0.0": "nan", "1.0": 1.0}},
                                     {"phi_R": {"0.0": float("nan"), "1.0": 1.0}},
                                     {"phi_R": {"nan": 0.0, "1.0": 1.0}},
                                     {"phi_R": {"0.0": 0.0, "inf": 1.0}}])
    def test_verify_morphism_malformed_map(self, bad, tmp_path, capsys):
        p1 = tmp_path / "m.json"
        p1.write_text(json.dumps(mdp_to_json(make_chain(3))))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"phi_S": [0, 1, 2], "phi_A": [0, 1],
                                       "phi_R": {"0.0": 0.0, "1.0": 1.0}, **bad}))
        assert main(["verify-morphism", "--m", str(p1), "--m2", str(p1),
                     "--map", str(mapping)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mapping}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("text", ["5", "null", "true", "[1, 2]", '"chain"'])
    def test_mdp_file_not_an_object(self, text, tmp_path, capsys):
        # a scalar used to raise TypeError, and a list or string to report a missing field
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["verify-category", "--env", f"mdp-file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: top level: expected a JSON object") \
            and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["sweep", "--m", "--m2", "--map"])
    def test_json_input_not_an_object(self, command, tmp_path, monkeypatch, capsys):
        # a map used to report a missing phi_S, and a sweep config a TypeError
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad").write_text("[0, 1]")
        (tmp_path / "m.json").write_text(json.dumps(mdp_to_json(make_chain(3))))
        (tmp_path / "map.json").write_text(json.dumps({
            "phi_S": [0, 1, 2], "phi_A": [0, 1], "phi_R": {"0.0": 0.0, "1.0": 1.0}}))
        morphism = {"--m": "m.json", "--m2": "m.json", "--map": "map.json", command: "bad"}
        argv = ["sweep", "--config", "bad", "--out", "r.csv"] if command == "sweep" else \
            ["verify-morphism", *(x for kv in morphism.items() for x in kv)]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: bad: top level: expected a JSON object, got [0, 1]\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["mdp-file", "sweep", "--m", "--m2", "--map", "plot"])
    def test_input_not_utf8(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad").write_bytes(b"\xff\xfe")
        (tmp_path / "m.json").write_text(json.dumps(mdp_to_json(make_chain(3))))
        (tmp_path / "map.json").write_text(json.dumps({
            "phi_S": [0, 1, 2], "phi_A": [0, 1], "phi_R": {"0.0": 0.0, "1.0": 1.0}}))
        morphism = {"--m": "m.json", "--m2": "m.json", "--map": "map.json", command: "bad"}
        argv = {"mdp-file": ["verify-category", "--env", "mdp-file:bad"],
                "sweep": ["sweep", "--config", "bad", "--out", "r.csv"],
                "plot": ["plot", "--in", "bad", "--out", "p.svg"]}.get(
            command, ["verify-morphism", *(x for kv in morphism.items() for x in kv)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad: not UTF-8 text") and err.count("\n") == 1, err
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "p.svg").exists()


class TestUsageErrors:
    def test_unknown_subcommand_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-category", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-category"],
        ["verify-morphism", "--m", "a.json", "--m2", "b.json", "--map", "map.json"],
        ["analyze-deps", "--wrapper", "S^1", "--t", "1"],
    ])
    def test_seed_only_on_commands_that_read_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
