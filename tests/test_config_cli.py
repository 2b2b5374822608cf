import copy
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzirs import cli
from thzirs.cli import main, parse_seed_list
from thzirs.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from thzirs.experiment import _aggregate_rows, load_report, resolve_bands


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


FAST = {
    "room": {"length_m": 8.0, "width_m": 5.0},
    "ues": {"count": 2},
    "bands": {"centers_ghz": [225.0, 275.0]},
    "radio": {"element_count": 8, "rate_floor_bps": 1e9},
    "search": {"grid_step_x_m": 2.0, "grid_step_y_m": 2.0},
    "runner": {"seeds": [1, 2, 3]},
}


def test_default_plan_slides_past_absorption_peaks():
    config = ExperimentConfig()
    assert config.band_centers_ghz is None
    assert config.auto_band_range_ghz == (200.0, 400.0)
    bands = resolve_bands(config)
    centers = [b.center_hz / 1e9 for b in bands]
    np.testing.assert_allclose(centers, [225.0, 275.0, 334.8], atol=0.05)
    for b in bands:
        assert b.bandwidth_hz == pytest.approx(50e9)
        assert b.noise_psd_w_per_hz == pytest.approx(10.0 ** -19.4, rel=1e-12)


def test_explicit_centers_echo_verbatim():
    config = ExperimentConfig(band_centers_ghz=(225.0, 275.0, 305.0, 355.0))
    assert config.band_centers_ghz == (225.0, 275.0, 305.0, 355.0)
    assert config.auto_band_range_ghz is None
    centers = [b.center_hz / 1e9 for b in resolve_bands(config)]
    np.testing.assert_allclose(centers, [225.0, 275.0, 305.0, 355.0], rtol=1e-15)

    # order and overlap are the caller's business
    config = ExperimentConfig(band_centers_ghz=(300.0, 280.0))
    assert config.band_centers_ghz == (300.0, 280.0)


def test_explicit_plan_wins_over_auto_range():
    config = ExperimentConfig(
        band_centers_ghz=(250.0,), auto_band_range_ghz=(200.0, 400.0)
    )
    assert config.auto_band_range_ghz is None
    centers = [b.center_hz / 1e9 for b in resolve_bands(config)]
    assert centers == [250.0]


def test_dict_round_trip_is_identity():
    for config in (
        ExperimentConfig(),
        ExperimentConfig(
            band_centers_ghz=(305.0, 225.0),
            element_count=8,
            seeds=(3, 1, 4),
            ue_counts=(1, 2, 4),
            relative_humidity_pct=0.0,
        ),
    ):
        again = config_from_dict(config_to_dict(config))
        assert again == config


def _finite(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def valid_configs(draw):
    """Any config that validates: each field drawn inside its accepted range."""
    length, width, height = draw(_finite(1.0, 20.0)), draw(_finite(1.0, 20.0)), draw(_finite(2.0, 5.0))
    kwargs = {
        "room_length_m": length,
        "room_width_m": width,
        "room_height_m": height,
        "ap_position_m": (draw(_finite(0.0, width)), draw(_finite(0.0, length)),
                          draw(_finite(0.0, height, exclude_min=True, exclude_max=True))),
        "ue_count": draw(st.integers(1, 6)),
        "ue_height_m": draw(_finite(0.0, height, exclude_min=True, exclude_max=True)),
        "temperature_c": draw(_finite(-100.0, 100.0)),
        "pressure_hpa": draw(_finite(1.0, 2000.0)),
        "relative_humidity_pct": draw(_finite(0.0, 100.0)),
        "band_width_ghz": draw(_finite(0.5, 100.0)),
        "element_count": draw(st.integers(1, 64)),
        "spacing_m": draw(_finite(1e-4, 0.05)),
        "p_max_w": draw(_finite(1e-3, 10.0)),
        "rate_floor_bps": draw(_finite(0.0, 1e12)),
        "noise_psd_dbm_per_hz": draw(_finite(-200.0, -100.0)),
        "noise_figure_db": draw(_finite(0.0, 30.0)),
        "grid_step_x_m": draw(_finite(0.01, 2.0)),
        "grid_step_y_m": draw(_finite(0.01, 2.0)),
        "seeds": tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=5))),
        "algorithms": tuple(draw(st.lists(st.sampled_from(["bcs", "minidis", "ranloc", "ranphi"]),
                                          min_size=1, max_size=4))),
        "ue_counts": draw(st.none() | st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)),
        "sweep_distances_m": tuple(draw(st.lists(_finite(0.1, 100.0), min_size=1, max_size=3))),
        "sweep_step_ghz": draw(_finite(0.01, 10.0)),
    }
    if draw(st.booleans()):
        kwargs["ue_positions_m"] = tuple(draw(st.lists(
            st.tuples(_finite(0.0, width), _finite(0.0, length), _finite(0.0, height, exclude_max=True)),
            min_size=1, max_size=4,
        )))
    if draw(st.booleans()):
        width = kwargs["band_width_ghz"]
        kwargs["band_centers_ghz"] = tuple(draw(st.lists(_finite(width, 1000.0), min_size=1, max_size=5)))
    else:
        lo, hi = sorted(draw(st.lists(_finite(1.0, 1000.0), min_size=2, max_size=2, unique=True)))
        kwargs["auto_band_range_ghz"] = (lo, hi)
    return ExperimentConfig(**kwargs)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(valid_configs())
def test_any_valid_config_round_trips(config):
    assert config_from_dict(config_to_dict(config)) == config
    # the same through the JSON text a config file holds
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_config_file_layout_is_pinned():
    # every group and key name of the file format, in the order a report stores them
    layout = [(group, list(keys)) for group, keys in config_to_dict(ExperimentConfig()).items()]
    assert layout == [
        ("room", ["length_m", "width_m", "height_m", "ap_position_m"]),
        ("ues", ["count", "height_m", "positions_m"]),
        ("atmosphere", ["temperature_c", "pressure_hpa", "relative_humidity_pct"]),
        ("bands", ["centers_ghz", "width_ghz", "auto_range_ghz"]),
        ("radio", ["element_count", "spacing_m", "p_max_w", "rate_floor_bps",
                   "noise_psd_dbm_per_hz", "noise_figure_db"]),
        ("search", ["grid_step_x_m", "grid_step_y_m"]),
        ("runner", ["seeds", "algorithms", "ue_counts"]),
        ("sweep", ["distances_m", "step_ghz"]),
    ]


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config section 'rooms'"):
        config_from_dict({"rooms": {}})
    with pytest.raises(ConfigError, match="unknown key room.lengthz_m"):
        config_from_dict({"room": {"lengthz_m": 4.0}})
    # a key of another group is unknown here
    with pytest.raises(ConfigError, match="unknown key room.count"):
        config_from_dict({"room": {"count": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({"room": 7.0})
    # the inner-loop stop threshold is a fixed constant, not a setting
    with pytest.raises(ConfigError, match="unknown key search.inner_tolerance"):
        config_from_dict({"search": {"inner_tolerance": 1e-3}})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


def test_empty_config_file_means_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("  \n\t ", encoding="utf-8")
    assert load_config(str(path)) == ExperimentConfig()


def test_unreadable_or_malformed_config(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"room_length_m": -1.0},
        {"ap_position_m": (9.0, 0.0, 2.0)},
        {"ap_position_m": (2.5, 4.0, 3.0)},
        {"ue_height_m": 3.5},
        {"ue_count": 0},
        {"relative_humidity_pct": 120.0},
        {"band_width_ghz": 0.0},
        {"band_centers_ghz": (20.0,)},
        {"band_centers_ghz": ()},
        {"band_centers_ghz": None, "auto_band_range_ghz": None},
        {"auto_band_range_ghz": (400.0, 200.0)},
        {"element_count": 0},
        {"spacing_m": 0.0},
        {"p_max_w": 0.0},
        {"rate_floor_bps": -1.0},
        {"grid_step_x_m": 0.0},
        {"grid_step_y_m": -0.25},
        {"seeds": ()},
        {"seeds": (-3,)},
        {"algorithms": ("bcs", "newton")},
        {"ue_counts": (0,)},
        {"sweep_step_ghz": 0.0},
        {"rate_floor_bps": float("nan")},
        {"grid_step_y_m": float("nan")},
        {"p_max_w": float("inf")},
        {"room_length_m": float("inf")},
        {"element_count": float("nan")},
        {"ap_position_m": (1.0, float("nan"), 2.0)},
        {"band_centers_ghz": (225.0, float("inf"))},
        {"ue_positions_m": ((4.0, 9.0, 1.0),)},
        {"ue_positions_m": ((1.0, 2.0, 3.0),)},
        {"ue_positions_m": ((-0.5, 2.0, 1.0),)},
        # counts must be whole numbers, never bools
        {"element_count": 2.5},
        {"element_count": True},
        {"ue_count": 2.5},
        {"ue_count": True},
        {"seeds": (1.7,)},
        {"seeds": (1, False)},
        {"ue_counts": (1.5,)},
        {"ue_counts": (True,)},
    ],
)
def test_invalid_settings_rejected(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_explicit_ue_positions_set_the_count():
    config = ExperimentConfig(
        ue_positions_m=((1.0, 2.0, 1.0), (2.0, 3.0, 1.5), (4.0, 7.0, 0.5))
    )
    assert config.ue_count == 3


def test_noise_psd_combines_floor_and_figure():
    assert ExperimentConfig(noise_figure_db=0.0).noise_psd_w_per_hz() == pytest.approx(
        3.981071705534986e-21, rel=1e-12
    )
    assert ExperimentConfig().noise_psd_w_per_hz() == pytest.approx(
        10.0 ** -19.4, rel=1e-12
    )


def test_parse_seed_list_forms():
    assert parse_seed_list("7") == (7,)
    assert parse_seed_list("1,4,9") == (1, 4, 9)
    assert parse_seed_list("3..6") == (3, 4, 5, 6)
    assert parse_seed_list(" 2..2 ") == (2,)
    for bad in ("a..b", "3..1", "x,y", ""):
        with pytest.raises(ConfigError):
            parse_seed_list(bad)


def test_cli_usage_problems_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["optimize", "--config", str(tmp_path / "nope.json"),
                 "--algo", "bcs", "--seed", "1"]) == 1
    cfg = write_config(tmp_path, FAST)
    assert main(["optimize", "--config", cfg, "--algo", "sorcery", "--seed", "1"]) == 1
    capsys.readouterr()


def test_cli_band_plan_prints_the_plan(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST)
    assert main(["band-plan", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "band 1: center=225.000 GHz" in out
    assert "band 2: center=275.000 GHz" in out
    assert "K(center)=" in out


def test_cli_optimize_reports_and_exits_clean(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST)
    assert main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "algo=minidis seed=3 U=2" in out
    assert "feasible=true" in out


def test_cli_optimize_refuses_plans_above_the_allocation_cap(tmp_path, capsys):
    # 10 GHz bands tile 200..400 GHz with 16 sub-bands: 2**16 assignments
    cfg = write_config(tmp_path, {"bands": {"width_ghz": 10}})
    assert main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "2 UEs over 16 sub-bands give 65536 assignments" in err
    assert "exact-allocation cap of 4096" in err


def test_cli_monte_carlo_fails_when_every_seed_aborts(tmp_path, capsys):
    # both seeds hit the exact-allocation cap, as plan optimize does
    payload = {"bands": {"width_ghz": 10}, "runner": {"seeds": [1, 2], "algorithms": ["minidis"]}}
    cfg = write_config(tmp_path, payload)
    assert main(["monte-carlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "2 seed(s) failed" in err
    assert "exact-allocation cap of 4096" in err
    assert main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "1"]) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"radio": {"rate_floor_bps": NaN}}', "non-finite number in rate_floor_bps"),
        ('{"search": {"grid_step_y_m": NaN}}', "non-finite number in grid_step_y_m"),
        ('{"radio": {"p_max_w": Infinity}}', "non-finite number in p_max_w"),
    ],
    ids=["nan-floor", "nan-grid-step", "inf-power"],
)
def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys, text, message):
    # Python's json reads NaN and Infinity although they are not JSON
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["optimize", "--config", str(cfg), "--algo", "minidis", "--seed", "1"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["minidis", "bcs"])
def test_cli_refuses_a_budget_whose_snr_overflows(tmp_path, capsys, algo):
    # 1e308 W passes the config's finiteness check, but gain / noise * p_max
    # overflows; the allocation refuses it rather than report an infinite rate
    cfg = write_config(tmp_path, {"radio": {"p_max_w": 1e308}})
    assert main(["optimize", "--config", cfg, "--algo", algo, "--seed", "1"]) == 1
    assert "gains / noise * p_max is not finite" in capsys.readouterr().err


def test_cli_ranphi_passes_over_the_points_whose_snr_overflows(tmp_path, capsys):
    # at 1e308 W the frozen profile's SNR overflows at some lattice points,
    # not all: ranphi passes over those and answers from the rest
    cfg = write_config(tmp_path, {"radio": {"p_max_w": 1e308}})
    assert main(["optimize", "--config", cfg, "--algo", "ranphi", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "feasible=true" in out
    assert np.isfinite(float(re.search(r"sum_rate_bps=(\S+)", out).group(1)))


def test_cli_optimize_stays_finite_at_a_huge_budget(tmp_path, capsys):
    cfg = write_config(tmp_path, {"radio": {"p_max_w": 1e300}})
    assert main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "feasible=true" in out
    assert np.isfinite(float(re.search(r"sum_rate_bps=(\S+)", out).group(1)))


def test_cli_lets_a_programming_error_propagate(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise AttributeError("'Solution' object has no attribute 'rate'")

    monkeypatch.setattr(cli, "run_single", broken)
    cfg = write_config(tmp_path, FAST)
    with pytest.raises(AttributeError, match="no attribute 'rate'"):
        main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "1"])


@pytest.mark.parametrize("error", [ZeroDivisionError, np.linalg.LinAlgError])
def test_cli_numeric_failures_exit_3(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("singular")

    monkeypatch.setattr(cli, "run_single", broken)
    cfg = write_config(tmp_path, FAST)
    assert main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "1"]) == 3
    assert "numeric failure: singular" in capsys.readouterr().err


def test_cli_rejects_ue_positions_outside_the_room(tmp_path, capsys):
    payload = {**FAST, "ues": {"positions_m": [[4.0, 9.0, 1.0]]}}
    cfg = write_config(tmp_path, payload)
    assert main(["monte-carlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "UE 0 at [4. 9. 1.] outside the room box" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "ues, seed, ue_count, message",
    [
        ({"positions_m": [[1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [3.0, 3.0, 1.0]]}, "1", "-1",
         "ue_count takes whole numbers of at least 1, got -1"),
        ({"count": 2}, "1", "-1", "ue_count takes whole numbers of at least 1, got -1"),
        ({"count": 2}, "1", "0", "ue_count takes whole numbers of at least 1, got 0"),
        ({"count": 2}, "-5", None, "seed takes whole numbers of at least 0, got -5"),
    ],
    ids=["explicit-rows-negative-ue-count", "negative-ue-count", "zero-ue-count",
         "negative-seed"],
)
def test_cli_optimize_refuses_a_ue_count_below_1_or_a_negative_seed(tmp_path, capsys, ues,
                                                                    seed, ue_count, message):
    cfg = write_config(tmp_path, {**FAST, "ues": ues})
    argv = ["optimize", "--config", cfg, "--algo", "minidis", "--seed", seed]
    if ue_count is not None:
        argv += ["--ue-count", ue_count]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out


def test_cli_optimize_signals_infeasible(tmp_path, capsys):
    payload = {**FAST, "radio": {**FAST["radio"], "rate_floor_bps": 1e15}}
    cfg = write_config(tmp_path, payload)
    assert main(["optimize", "--config", cfg, "--algo", "minidis", "--seed", "3"]) == 2
    assert "feasible=false" in capsys.readouterr().out


def test_cli_absorption_sweep_writes_csv(tmp_path, capsys):
    payload = {**FAST, "sweep": {"distances_m": [5.0, 20.0], "step_ghz": 10.0}}
    cfg = write_config(tmp_path, payload)
    out_csv = tmp_path / "sweep.csv"
    assert main(["absorption-sweep", "--config", cfg, "--out", str(out_csv)]) == 0
    assert "wrote 21 rows" in capsys.readouterr().out

    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "f_hz,K_per_m,gain_db_d1,gain_db_d2"
    assert len(lines) == 22
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert table[0, 0] == 200e9 and table[-1, 0] == 400e9
    # more distance, less gain, at every frequency
    assert np.all(table[:, 2] > table[:, 3])

    again = tmp_path / "sweep2.csv"
    main(["absorption-sweep", "--config", cfg, "--out", str(again)])
    capsys.readouterr()
    assert again.read_bytes() == out_csv.read_bytes()


def test_cli_monte_carlo_outputs_and_replay(tmp_path, capsys):
    payload = {**FAST, "runner": {"seeds": [1, 2], "ue_counts": [1, 2]}}
    cfg = write_config(tmp_path, payload)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["monte-carlo", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["monte-carlo", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()

    for name in ("summary.csv", "aggregate.csv", "timing.csv", "report.json"):
        assert (out_a / name).is_file()
    # rates, aggregates and the report replay byte for byte; wallclock may not
    for name in ("summary.csv", "aggregate.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    report = load_report(str(out_a / "report.json"))
    assert not report.failures and report.timing == []
    assert len(report.rows) == 2 * 2 * 4
    # a report that still carries its wall times loads as well
    raw = json.loads((out_a / "report.json").read_text(encoding="utf-8"))
    timed = tmp_path / "timed.json"
    timed.write_text(json.dumps({**raw, "timing": [[1, "bcs", 1, 0.5]]}), encoding="utf-8")
    assert load_report(str(timed)).timing == [[1, "bcs", 1, 0.5]]
    head = (out_a / "summary.csv").read_text().split("\n")[0]
    assert head == "seed,algo,U,sum_rate_bps,feasible"


def test_cli_monte_carlo_worker_count_is_invisible(tmp_path, capsys):
    payload = {**FAST, "runner": {"seeds": [5, 6], "ue_counts": [2]}}
    cfg = write_config(tmp_path, payload)
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w2"
    assert main(["monte-carlo", "--config", cfg, "--out", str(out_a),
                 "--workers", "1"]) == 0
    old = os.environ.get("PLAN_THREADS")
    os.environ["PLAN_THREADS"] = "2"
    try:
        assert main(["monte-carlo", "--config", cfg, "--out", str(out_b)]) == 0
    finally:
        if old is None:
            os.environ.pop("PLAN_THREADS", None)
        else:
            os.environ["PLAN_THREADS"] = old
    capsys.readouterr()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_cli_seed_override_narrows_the_batch(tmp_path, capsys):
    payload = {**FAST, "runner": {"seeds": [1, 2, 3], "ue_counts": [1]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "narrow"
    assert main(["monte-carlo", "--config", cfg, "--seeds", "2..3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    body = (out / "summary.csv").read_text().strip().split("\n")[1:]
    seeds = sorted({int(ln.split(",")[0]) for ln in body})
    assert seeds == [2, 3]


@pytest.mark.parametrize(
    "threads, flags, message",
    [
        ("0", [], "PLAN_THREADS must be a positive integer, got '0'"),
        ("-2", [], "PLAN_THREADS must be a positive integer, got '-2'"),
        ("abc", [], "PLAN_THREADS must be a positive integer, got 'abc'"),
        (None, ["--workers", "-5"], "worker count must be a positive integer, got -5"),
        (None, ["--workers", "0"], "worker count must be a positive integer, got 0"),
    ],
    ids=["threads-zero", "threads-negative", "threads-text", "workers-negative", "workers-zero"],
)
def test_cli_monte_carlo_rejects_impossible_worker_counts(tmp_path, capsys, monkeypatch,
                                                          threads, flags, message):
    if threads is None:
        monkeypatch.delenv("PLAN_THREADS", raising=False)
    else:
        monkeypatch.setenv("PLAN_THREADS", threads)
    cfg = write_config(tmp_path, FAST)
    assert main(["monte-carlo", "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def stored_report(tmp_path_factory):
    """A one-seed report.json as plan monte-carlo writes it, parsed."""
    root = tmp_path_factory.mktemp("stored")
    payload = {**FAST, "runner": {"seeds": [1], "ue_counts": [2], "algorithms": ["minidis"]}}
    cfg = write_config(root, payload)
    assert main(["monte-carlo", "--config", cfg, "--out", str(root / "run")]) == 0
    return json.loads((root / "run" / "report.json").read_text(encoding="utf-8"))


def _fractional_winner(raw):
    raw["solutions"][0]["winners"][0] = 0.5


def _feasible_as_text(raw):
    raw["solutions"][0]["feasible"] = "false"


def _no_draws(raw):
    raw["draws"] = []


def _no_rounds(raw):
    del raw["solutions"][0]["rounds"]


def _more_ues_than_draws(raw):
    raw["solutions"][0]["ue_count"] = 5


def _negative_ue_count(raw):
    raw["solutions"][0]["ue_count"] = -3
    raw["rows"][0][2] = -3
    raw["aggregate"] = _aggregate_rows(raw["rows"])


# row tampers recompute the aggregate, so only the row-to-solution check can catch them
def _doubled_row_rate(raw):
    raw["rows"][0][3] *= 2
    raw["aggregate"] = _aggregate_rows(raw["rows"])


def _flipped_row_feasible(raw):
    raw["rows"][0][4] = not raw["rows"][0][4]
    raw["aggregate"] = _aggregate_rows(raw["rows"])


def _missing_row(raw):
    raw["rows"] = []
    raw["aggregate"] = []


def _nan_power(raw):
    raw["solutions"][0]["powers_w"][0] = float("nan")


def _nan_rates(raw):
    sol = raw["solutions"][0]
    sol["rates_bps"] = [float("nan")] * len(sol["rates_bps"])
    sol["sum_rate_bps"] = float("nan")


def _short_winners(raw):
    raw["solutions"][0]["winners"].pop()


def _short_powers(raw):
    raw["solutions"][0]["powers_w"].pop()


def _short_phases(raw):
    raw["solutions"][0]["phases_rad"].pop()


def _long_rates(raw):
    raw["solutions"][0]["rates_bps"].append(0.0)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_fractional_winner, "solution field 'winners' must hold int values, got [0.5"),
        (_feasible_as_text, "solution field 'feasible' must hold bool values, got 'false'"),
        (_no_draws, "solution field 'seed' = 1 has no draws entry"),
        (_no_rounds, "solution field 'rounds' is missing"),
        (_more_ues_than_draws, "solution field 'ue_count' = 5 exceeds the 2 positions drawn for seed 1"),
        (_negative_ue_count, "solution field 'ue_count' = -3 is below 1"),
        (_doubled_row_rate, "summary row 0 field 'sum_rate_bps' = "),
        (_flipped_row_feasible, "summary row 0 field 'feasible' = "),
        (_missing_row, "0 summary rows for 1 stored solutions"),
        (_nan_power, "stored powers, rates and sum rate must be finite"),
        (_nan_rates, "stored powers, rates and sum rate must be finite"),
        (_short_winners, "stored winners have shape (1,), expected (2,)"),
        (_short_powers, "stored powers have shape (1,), expected (2,)"),
        (_short_phases, "stored phases have shape (7,), expected (8,)"),
        (_long_rates, "stored rates have shape (3,), expected (2,)"),
    ],
    ids=["fractional-winners", "feasible-as-text", "seed-without-draws", "missing-rounds",
         "ue-count-past-draws", "negative-ue-count", "doubled-row-rate", "row-feasible-flipped",
         "missing-row", "nan-power", "nan-rates", "short-winners", "short-powers",
         "short-phases", "long-rates"],
)
def test_load_report_names_a_tampered_field(stored_report, tmp_path, tamper, message):
    assert load_report(_dump(stored_report, tmp_path / "clean.json")).solutions
    raw = copy.deepcopy(stored_report)
    tamper(raw)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_report(_dump(raw, tmp_path / "tampered.json"))


def _dump(raw, path):
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)
