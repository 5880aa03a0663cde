import json
import os
from fractions import Fraction as F

import pytest

from wht import cli
from wht.config import ConfigError, dump_config, load_config, parse_config
from wht.model import ModelParams
from wht.verify import suite_disk


BASE_CFG = {
    "model": {"m": 1, "r": 0, "u": ["1/2"], "p": ["1/6", "1/10"],
              "q": ["1/5", "1/8"], "T": 5},
    "oracle": {"d_max": 2, "connected": False, "run_max": 4},
    "toprec": {"t_value": [0.001, 0.0], "g_max": 1, "n_max": 3, "tol": 1e-6},
    "tasks": ["critical-values"],
    "output": {"formats": ["json", "csv"]},
}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG)
    cfg = load_config(path)
    emitted = dump_config(cfg)
    cfg2 = parse_config(json.loads(emitted))
    assert dump_config(cfg2) == emitted
    assert cfg2.model == cfg.model


def test_config_rejects_unknown_task(tmp_path):
    bad = dict(BASE_CFG)
    bad["tasks"] = ["no-such-suite"]
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bad))


def test_config_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["table", "--config", str(path)]) == cli.EXIT_CONFIG


def test_table_single_row_and_determinism(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["oracle"]["d_max"] = 1
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["table", "--config", path]) == 0
    table = json.load(open(tmp_path / "out" / "table.json"))
    assert len(table) == 1
    assert table[0]["lambda"] == [1] and table[0]["count"] == "1"
    first = (tmp_path / "out" / "table.json").read_bytes()
    assert cli.main(["table", "--config", path]) == 0
    assert (tmp_path / "out" / "table.json").read_bytes() == first


def test_table_worked_size_two_rows(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["oracle"]["d_max"] = 2
    data["oracle"]["connected"] = True
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["table", "--config", path]) == 0
    rows = {(tuple(r["lambda"]), tuple(r["mu"]), tuple(r["ell"])): r["count"]
            for r in json.load(open(tmp_path / "out" / "table.json"))}
    assert rows[((2,), (1, 1), (1,))] == "1"
    assert rows[((2,), (2,), (0,))] == "1"


def test_curve_outputs(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["curve", "--config", path]) == 0
    payload = json.load(open(tmp_path / "out" / "curve.json"))
    assert "A" in payload and "curve" in payload
    assert "branchpoints" in payload["curve"]
    rows = (tmp_path / "out" / "branchpoints.csv").read_text().splitlines()
    assert rows[0] == "i,re_a,im_a,re_b,im_b"
    assert len(rows) == 1 + len(payload["curve"]["branchpoints"]["initial"])
    assert (tmp_path / "out" / "xy_slice.csv").exists()


def test_verify_exit_zero_and_report(tmp_path, capsys):
    data = json.loads(json.dumps(BASE_CFG))
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["verify", "--config", path]) == 0
    captured = capsys.readouterr()
    assert "[PASS] critical-values" in captured.out
    rep = json.load(open(tmp_path / "out" / "verify.json"))
    assert rep["checks"][0]["status"] == "PASS"


def test_degenerate_model_skips_tr_suite(tmp_path):
    # D2 = 1 polynomial model with one color has no finite ramification point:
    # series-level suites still pass, the recursion suite must SKIP
    data = json.loads(json.dumps(BASE_CFG))
    data["model"]["q"] = ["1/5"]
    data["model"]["p"] = ["1/6"]
    data["tasks"] = ["tr-vs-oracle", "critical-values"]
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["verify", "--config", path]) == 0
    rep = json.load(open(tmp_path / "out" / "verify.json"))
    by_name = {r["name"]: r for r in rep["checks"]}
    assert by_name["tr-vs-oracle"]["status"] == "SKIP"
    assert "root-count" in by_name["tr-vs-oracle"]["details"]["clause"]
    assert by_name["critical-values"]["status"] == "PASS"


def test_sensitivity_corrupted_weight_fails_disk():
    good = suite_disk()
    assert good.status == "PASS"
    corrupted = ModelParams.make(1, 0, u=[F(2, 5)], p=[F(1, 3), F(2, 5)],
                                 q=[F(3, 7), F(1, 2)], T=3)
    bad = suite_disk(oracle_params=corrupted)
    assert bad.status == "FAIL"


def test_tr_command_runs(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["oracle"]["d_max"] = 5
    data["model"]["T"] = 5
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["tr", "--config", path]) == 0
    payload = json.load(open(tmp_path / "out" / "omega.json"))
    assert "omega" in payload and payload["comparison"]["pass"]


def test_curve_export_exponential_blocks(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["model"]["u_exp"] = "1/4"
    data["model"]["T"] = 4
    data["oracle"]["exp_run_max"] = 4
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["curve", "--config", path]) == 0
    payload = json.load(open(tmp_path / "out" / "curve.json"))
    assert "eta" in payload and "theta" in payload


def test_parallel_verify(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["tasks"] = ["critical-values", "set-to-zero"]
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    os.environ["WHT_THREADS"] = "2"
    try:
        assert cli.main(["verify", "--config", path, "--parallel"]) == 0
    finally:
        del os.environ["WHT_THREADS"]


def test_bad_thread_count_is_a_config_error(tmp_path, capsys, monkeypatch):
    data = json.loads(json.dumps(BASE_CFG))
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    monkeypatch.setenv("WHT_THREADS", "abc")
    assert cli.main(["verify", "--config", path, "--parallel"]) == cli.EXIT_CONFIG
    assert "WHT_THREADS" in capsys.readouterr().err
