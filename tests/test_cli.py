import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import wht
from wht import cli
from wht.config import ConfigError, dump_config, load_config, parse_config
from wht.model import ModelParams
from wht.ring import MPoly, TSeries
from wht.verify import (
    suite_disk, suite_exp_extension, suite_insertion_identity, tr_oracle_depth,
)


BASE_CFG = {
    "model": {"m": 1, "r": 0, "u": ["1/2"], "p": ["1/6", "1/10"],
              "q": ["1/5", "1/8"], "T": 5},
    "oracle": {"d_max": 2, "connected": False, "run_max": 4},
    "toprec": {"t_value": [0.001, 0.0], "g_max": 1, "n_max": 3, "tol": 1e-6},
    "tasks": ["critical-values"],
    "output": {"formats": ["json", "csv"]},
}


# the minimal configuration of the README
README_CFG = {
    "model": {"m": 1, "r": 0, "u": ["1/2"], "p": ["1/6", "1/10"],
              "q": ["1/5", "1/8"], "T": 6},
    "oracle": {"d_max": 6, "connected": False, "run_max": 6},
    "toprec": {"t_value": [0.001, 0.0], "g_max": 1, "n_max": 3, "tol": 1e-6},
    "tasks": ["oracle-vs-schur", "disk", "cylinder", "tr-vs-oracle"],
    "output": {"dir": "out", "formats": ["json", "csv"]},
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


@pytest.mark.parametrize("section, key, value, named", [
    ("model", "u", [[0.5, 0.0]], "model.u"),
    ("model", "p", [0.25, "1/10"], "model.p"),
    ("model", "scalar_mode", "numeric", "model.scalar_mode"),
    ("toprec", "t_value", [0.9, 0.0], "toprec.t_value"),
    ("toprec", "depth_margin", -6, "toprec.depth_margin"),
    ("oracle", "d_max", 8, "oracle.d_max"),
    ("toprec", "n_max", {"g_max": 0, "n_max": 2},
     "toprec.g_max = 0 and toprec.n_max = 2"),
])
def test_inexact_or_out_of_range_config_exits_2(tmp_path, capsys, section,
                                                 key, value, named):
    data = json.loads(json.dumps(BASE_CFG))
    data[section].update(value if isinstance(value, dict) else {key: value})
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["tr", "--config", path]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_enumeration_limits_at_load(tmp_path, capsys):
    # S_8 tables are never built: the estimate alone rejects d_max = 8
    data = json.loads(json.dumps(BASE_CFG))
    data["oracle"]["d_max"] = 8
    with pytest.raises(ConfigError, match="6.5 GB"):
        load_config(write_cfg(tmp_path, data))
    data["oracle"]["d_max"] = 7
    assert load_config(write_cfg(tmp_path, data)).d_max == 7
    # counts that could pass 2^63 in int64 exit 2 before anything runs
    data["oracle"].update(d_max=3, exp_run_max=40)
    data["model"]["u_exp"] = "1/4"
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["table", "--config", path]) == cli.EXIT_CONFIG
    assert "oracle.exp_run_max" in capsys.readouterr().err
    assert not (tmp_path / "out" / "table.json").exists()


def test_config_accepts_echoed_exact_mode(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["model"]["scalar_mode"] = "exact"
    data["model"]["q"] = [1, 2.0]
    cfg = load_config(write_cfg(tmp_path, data))
    assert cfg.model.q == (F(1), F(2))


def test_tr_oracle_depth_matches_verify_rule():
    p11 = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                           q=[F(2, 7)], T=6)
    p10 = ModelParams.make(1, 0, u=[F(1, 2)], p=[F(1, 3)], q=[F(2, 7)], T=6)
    assert tr_oracle_depth(p11, 6) == 4
    assert tr_oracle_depth(p10, 8) == 6
    assert tr_oracle_depth(p10, 3) == 3


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


@pytest.mark.parametrize("T, depth", [(1, None), (2, 1), (5, 4), (7, 5)])
def test_curve_writes_the_formal_coefficients_the_blocks_fix(tmp_path, T, depth):
    # D2 = 2: min(5, T - D2 + 1) coefficients per point, and none below T = D2
    data = json.loads(json.dumps(BASE_CFG))
    data["model"]["T"] = T
    data["output"]["dir"] = str(tmp_path / "out")
    assert cli.main(["curve", "--config", write_cfg(tmp_path, data)]) == 0
    curve = json.load(open(tmp_path / "out" / "curve.json"))["curve"]
    if depth is None:
        assert curve["branchpoints_error"]["clause"] == "truncation"
    else:
        bp = curve["branchpoints"]
        assert bp["depth"] == depth
        assert all(len(row) == depth for row in bp["formal"])


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


def test_x_vanishing_at_a_ramification_point_exits_3(tmp_path, capsys):
    # equal weights make the numerator product a square, whose double root
    # is a ramification point where X = 0: the clause is named, no traceback
    data = json.loads(json.dumps(BASE_CFG))
    data["model"] = {"m": 2, "r": 0, "u": ["6/11", "6/11"], "p": ["6/13", "7/13"],
                     "q": ["8/11"], "T": 6}
    data["tasks"] = ["tr-vs-oracle"]
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["curve", "--config", path]) == 0
    assert cli.main(["tr", "--config", path]) == cli.EXIT_ASSUMPTION
    assert "X-zero" in capsys.readouterr().out
    assert json.load(open(tmp_path / "out" / "omega.json"))["skip"]["clause"] == "X-zero"
    assert cli.main(["verify", "--config", path]) == 0
    check, = json.load(open(tmp_path / "out" / "verify.json"))["checks"]
    assert check["status"] == "SKIP" and check["details"]["clause"] == "X-zero"


def test_sensitivity_corrupted_weight_fails_disk():
    good = suite_disk()
    assert good.status == "PASS"
    corrupted = ModelParams.make(1, 0, u=[F(2, 5)], p=[F(1, 3), F(2, 5)],
                                 q=[F(3, 7), F(1, 2)], T=3)
    bad = suite_disk(oracle_params=corrupted)
    assert bad.status == "FAIL"


def test_sensitivity_perturbed_cylinder_fails_insertion_identity(monkeypatch):
    import wht.spectral as spectral
    assert suite_insertion_identity().status == "PASS"
    w02 = spectral.w02

    def perturbed(sd):
        # one extra xb1^2 xb2^2 term at t^3, which the p_1 insertion reads
        return w02(sd) + TSeries.t_power(sd.T, 3, MPoly.var("xb1", 2) * MPoly.var("xb2", 2))
    monkeypatch.setattr(spectral, "w02", perturbed)
    assert suite_insertion_identity().status == "FAIL"


def test_sensitivity_corrupted_weight_fails_exp_extension():
    corrupted = ModelParams.make(1, 1, u=[F(1, 2), F(-1, 3)], p=[F(1, 3)],
                                 q=[F(2, 7) + F(1, 97)], T=3, u_exp=F(1, 5))
    bad = suite_exp_extension(oracle_params=corrupted)
    assert bad.status == "FAIL"
    assert not bad.details["disk_exact_in_v"]
    assert not bad.details["cylinder_exact_in_v"]
    assert bad.details["bulk_ratios"] == [100.0, 100.0]


def test_tr_command_runs(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["oracle"]["d_max"] = 5
    data["model"]["T"] = 5
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    assert cli.main(["tr", "--config", path]) == 0
    payload = json.load(open(tmp_path / "out" / "omega.json"))
    assert "omega" in payload and payload["comparison"]["pass"]
    # the box g <= 1, n <= 3 and its dependency (0,4), each with its
    # residue conditioning
    assert set(payload["omega"]) == {"0,3", "0,4", "1,1", "1,2", "1,3"}
    assert set(payload["condition"]) == set(payload["omega"])
    assert min(payload["condition"].values()) >= 1.0


def test_tr_output_is_byte_identical(tmp_path):
    data = json.loads(json.dumps(BASE_CFG))
    data["output"]["dir"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, data)
    omega_json = tmp_path / "out" / "omega.json"
    assert cli.main(["tr", "--config", path]) == 0
    first = omega_json.read_bytes()
    assert cli.main(["tr", "--config", path]) == 0
    assert omega_json.read_bytes() == first


def test_tr_and_verify_do_not_load_numpy_random(tmp_path):
    # the sample points come from a pure-Python stream: `wht tr` and `wht
    # verify` load `numpy.random` (about 6 MB resident) only where a bare
    # `import numpy` already does, as numpy 1.x does
    data = dict(README_CFG, output={"dir": str(tmp_path / "out"),
                                    "formats": ["json", "csv"]})
    path = write_cfg(tmp_path, data)
    src = str(Path(wht.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code + "; import sys; "
                              "print('numpy.random' in sys.modules)"],
                             env=env, capture_output=True, text=True, check=True)
        return out.stdout.split()[-1]
    commands = loaded("from wht import cli; assert [cli.main([c, '--config', "
                      f"{path!r}]) for c in ('tr', 'verify')] == [0, 0]")
    assert commands == loaded("import numpy")


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
