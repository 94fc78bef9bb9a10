import hashlib

import numpy as np
import pytest

from nonmarkov import experiments
from nonmarkov.core import ValidationError
from nonmarkov.experiments import (
    CSV_HEADER,
    CSVFormatError,
    SweepConfig,
    render_plot,
    run_sweep,
    wrapper_family,
)


def small_config(**kw):
    base = dict(envs=["chain:5"], wrappers=["S^0", "S^1"], agents=["qwin:1"],
                seeds=[0, 1], episodes=100, eval_episodes=20, horizon=6)
    base.update(kw)
    return SweepConfig(**base)


@pytest.mark.parametrize("eval_episodes", [0, -1])
def test_run_cell_checks_eval_episodes_before_training(eval_episodes, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached before eval_episodes was checked")

    monkeypatch.setattr(experiments, "make_env", never)
    monkeypatch.setattr(experiments, "train", never)
    with pytest.raises(ValidationError, match=f"eval_episodes must be >= 1, got {eval_episodes}"):
        experiments.run_cell("chain:5", "S", "qwin:1", 0, 20_000, eval_episodes, 8)


class TestSweepConfig:
    def test_grid_nonempty(self):
        with pytest.raises(ValidationError):
            small_config(envs=[])

    def test_seeds_distinct(self):
        with pytest.raises(ValidationError):
            small_config(seeds=[1, 1])

    @pytest.mark.parametrize("field,value", [
        ("seeds", ["x"]), ("seeds", [True]), ("seeds", [0.5]), ("seeds", 3),
        ("episodes", "abc"), ("episodes", 0), ("episodes", True),
        ("eval_episodes", 2.0), ("horizon", -1), ("workers", 0),
        ("envs", "chain:5"), ("wrappers", [None]), ("agents", [1]),
        ("record_walltime", "false"),
    ])
    def test_value_types(self, field, value):
        with pytest.raises(ValidationError, match=field):
            small_config(**{field: value})

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"envs": ["chain:5"], "wrappers": ["id"], '
                        '"agents": ["random"], "seeds": [0], "episodes": 10, '
                        '"eval_episodes": 5, "horizon": 4}')
        cfg = SweepConfig.from_json(str(path))
        assert cfg.envs == ["chain:5"] and cfg.episodes == 10


class TestWrapperFamily:
    @pytest.mark.parametrize("spec,family,param", [
        ("S^2", "S", 2.0), ("D^0", "D", 0.0), ("S_l:0.4", "S_l", 0.4),
        ("D_l:1", "D_l", 1.0), ("id", "id", 0.0), ("S", "S", 1.0), ("D", "D", 1.0),
        ("S^1+D^1", "S^1+D^1", 0.0), ("S^0", "S", 0.0), (" S_l:.5 ", "S_l", 0.5),
        ("conv:1,-0.5", "conv:1,-0.5", 0.0), ("corr:1,2", "corr:1,2", 0.0),
        ("+S^2", "+S^2", 0.0), ("D_l:0.5+corr:1,2", "D_l:0.5+corr:1,2", 0.0),
    ])
    def test_split(self, spec, family, param):
        assert wrapper_family(spec) == (family, param)


class TestRunSweep:
    def test_cardinality(self):
        cfg = SweepConfig(envs=["chain:5"], wrappers=["id"], agents=["random"],
                          seeds=[0, 1], episodes=5, eval_episodes=5, horizon=4)
        text = run_sweep(cfg)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2  # header + one row per seed

    def test_byte_determinism(self):
        t1 = run_sweep(small_config())
        t2 = run_sweep(small_config())
        assert t1 == t2

    def test_golden_digest(self):
        """Pins the CSV bytes, so any change to the random stream (sampling,
        seeding, exploration or evaluation order) fails here."""
        cfg = SweepConfig(envs=["chain:5:0.2", "random:1:4:2:2"],
                          wrappers=["S^0", "S^1", "D^1"], agents=["qwin:1", "random"],
                          seeds=[0, 1], episodes=150, eval_episodes=20, horizon=6)
        text = run_sweep(cfg)
        assert len(text.splitlines()) == 25
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7f9c0a6c379eedce6b1650edf8a703e847b184141349ecab95d9da7b4363e128")

    def test_golden_digest_windows(self):
        """Pins learning with windows longer than one observation."""
        cfg = SweepConfig(envs=["chain:5:0.2", "random:1:4:2:2"],
                          wrappers=["S^1", "D^2", "S_l:0.5"], agents=["qwin:2", "qwin:3"],
                          seeds=[0, 1], episodes=300, eval_episodes=20, horizon=6)
        text = run_sweep(cfg)
        assert len(text.splitlines()) == 25
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e3a456c8391a877d41a52d311fea8b90684291d0a518767c6f8472503bee27de")

    def test_parallel_equals_serial(self):
        serial = run_sweep(small_config(workers=1))
        parallel = run_sweep(small_config(workers=4))
        assert serial == parallel

    def test_pool_at_most_one_worker_per_cell(self, monkeypatch):
        asked = []  # max_workers of each pool the sweep opens

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        two_cells = run_sweep(small_config(seeds=[0], workers=10**6))
        assert asked == [2]
        assert two_cells == run_sweep(small_config(seeds=[0], workers=1))
        run_sweep(small_config(wrappers=["S^1"], seeds=[0], workers=10**6))
        assert asked == [2]  # one cell runs serially, with no pool

    def test_every_cell_once(self):
        cfg = small_config()
        text = run_sweep(cfg)
        rows = text.strip().split("\n")[1:]
        keys = [tuple(r.split(",")[:5]) for r in rows]
        assert len(keys) == len(set(keys)) == 4  # 2 wrappers x 2 seeds

    def test_failed_cell_recorded(self):
        cfg = SweepConfig(envs=["chain:5"], wrappers=["corr:1,2"],
                          agents=["qwin:1"], seeds=[0], episodes=5,
                          eval_episodes=5, horizon=6)
        # correlation weights run out before the horizon: the cell errors
        # but the sweep still emits its row
        text = run_sweep(cfg)
        rows = text.strip().split("\n")[1:]
        assert len(rows) == 1
        assert "error:" in rows[0]

    def test_failed_cell_names_its_error(self, capsys):
        cfg = SweepConfig(envs=["random:1:3:2:2"], wrappers=["conv:1e308,1e308"],
                          agents=["random"], seeds=[0], episodes=5, eval_episodes=2,
                          horizon=6, workers=1)
        text = run_sweep(cfg)
        assert text.strip().split("\n")[1].split(",")[-2] == "error:ValidationError"
        assert capsys.readouterr().err == (
            "error: random:1:3:2:2 | conv:1e308,1e308 | random | seed 0: ValidationError: "
            "filter conv:1e308,1e308 overflows float64: an aggregate is not finite\n")

    @pytest.mark.parametrize("agent", ["bad", "qwin:x", "qwin:0", "qwin:1:2"])
    def test_malformed_agent_rejected_before_any_cell(self, agent):
        with pytest.raises(ValidationError, match="cannot parse|window must be"):
            small_config(agents=["qwin:1", agent])

    def test_window_longer_than_an_episode_recorded(self):
        text = run_sweep(small_config(wrappers=["S^1"], agents=["qwin:10", "qwin:9"],
                                      seeds=[0], episodes=5, eval_episodes=5, horizon=8))
        rows = [r.split(",") for r in text.strip().split("\n")[1:]]
        assert [(r[3], r[8]) for r in rows] == [("qwin:10", "error:ValidationError"),
                                                ("qwin:9", "ok")]

    def test_degradation_trend_smoke(self):
        cfg = SweepConfig(envs=["chain:5:0.4"],
                          wrappers=["S^0", "S^1", "S^2", "S^3"],
                          agents=["qwin:1"], seeds=[0, 1, 2],
                          episodes=2000, eval_episodes=100, horizon=8)
        text = run_sweep(cfg)
        rows = [r.split(",") for r in text.strip().split("\n")[1:]]
        by_n = {}
        for r in rows:
            by_n.setdefault(float(r[2]), []).append(float(r[5]))
        means = [np.mean(by_n[n]) for n in sorted(by_n)]
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))

    def test_writes_file(self, tmp_path):
        out = tmp_path / "r.csv"
        text = run_sweep(small_config(episodes=5, eval_episodes=5), str(out))
        assert out.read_text() == text


class TestRenderPlot:
    def make_csv(self, tmp_path, rows):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_one_series_six_points(self, tmp_path):
        rows = [f"chain:5,S,{n},qwin:1,0,{5 - n * 0.5},0.1,100,ok,0" for n in range(6)]
        csv_path = self.make_csv(tmp_path, rows)
        out = tmp_path / "p.svg"
        svg = render_plot(csv_path, str(out))
        assert svg.count("<polyline") == 1
        poly = svg[svg.index("<polyline"):]
        points = poly[poly.index('points="') + 8: poly.index('" fill')]
        assert len(points.split()) == 6
        assert out.exists()

    def test_series_count(self, tmp_path):
        rows = []
        for agent in ("qwin:1", "random"):
            for fam in ("S", "D"):
                for n in range(3):
                    rows.append(f"chain:5,{fam},{n},{agent},0,{n},0,100,ok,0")
        svg = render_plot(self.make_csv(tmp_path, rows), str(tmp_path / "p.svg"))
        assert svg.count("<polyline") == 4

    def test_error_bars_across_seeds(self, tmp_path):
        rows = ["chain:5,S,1,qwin:1,0,4.0,0,100,ok,0",
                "chain:5,S,1,qwin:1,1,5.0,0,100,ok,0",
                "chain:5,S,2,qwin:1,0,3.0,0,100,ok,0",
                "chain:5,S,2,qwin:1,1,3.0,0,100,ok,0"]
        svg = render_plot(self.make_csv(tmp_path, rows), str(tmp_path / "p.svg"))
        # only the param-1 point has spread, so exactly one error bar
        assert svg.count('<line x1') == 1 + 2  # 2 axis lines + 1 error bar

    def test_empty_data_errors(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(CSVFormatError, match="no data rows"):
            render_plot(str(path), str(tmp_path / "p.svg"))

    def test_malformed_row_reports_line(self, tmp_path):
        rows = ["chain:5,S,1,qwin:1,0,4.0,0,100,ok,0",
                "chain:5,S,2,qwin:1,0,not-a-number,0,100,ok,0"]
        with pytest.raises(CSVFormatError, match="line 3"):
            render_plot(self.make_csv(tmp_path, rows), str(tmp_path / "p.svg"))

    @pytest.mark.parametrize("row", [
        "chain:5,S,nan,qwin:1,0,4.0,0,100,ok,0",
        "chain:5,S,inf,qwin:1,0,4.0,0,100,ok,0",
        "chain:5,S,2,qwin:1,0,nan,0,100,ok,0",
        "chain:5,S,2,qwin:1,0,-inf,0,100,ok,0",
    ], ids=["param-nan", "param-inf", "mean-nan", "mean-minus-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, row):
        # float() reads nan and inf, which would put nan coordinates in the SVG
        rows = ["chain:5,S,1,qwin:1,0,4.0,0,100,ok,0", row]
        out = tmp_path / "p.svg"
        with pytest.raises(CSVFormatError, match="line 3: param and mean_return must be finite"):
            render_plot(self.make_csv(tmp_path, rows), str(out))
        assert not out.exists()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CSVFormatError, match="line 1"):
            render_plot(str(path), str(tmp_path / "p.svg"))
