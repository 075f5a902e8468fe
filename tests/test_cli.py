import json
import re
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bitquant import (
    ConvergenceError,
    SyntheticSpec,
    generate,
    load_packed,
    load_tensor,
    lloyd_to_scaled_binary,
    pack_quantization,
    quantize_lloyd,
    quantize_ls2,
    save_packed,
    save_tensor,
)
from bitquant import cli
from bitquant.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# --- gen ------------------------------------------------------------------


def test_gen_writes_deterministic_tensor(tmp_path, capsys):
    out = tmp_path / "x.fqt"
    code, stdout, _ = run(capsys, "gen", "--dist", "normal", "--shape", "100", "--out", str(out))
    assert code == 0
    payload = last_json(stdout)
    assert payload["n"] == 100 and payload["distribution"] == "normal"
    # One dimension writes the spec's vector.
    expected = generate(SyntheticSpec("normal", 100, 0)).astype(np.float32)
    assert np.array_equal(load_tensor(out), expected)
    first = out.read_bytes()
    code, _, _ = run(capsys, "gen", "--dist", "normal", "--shape", "100", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == first


def test_gen_matrix_and_csv(tmp_path, capsys):
    out = tmp_path / "m.fqt"
    code, _, _ = run(
        capsys, "gen", "--dist", "laplace(2)", "--shape", "4", "5", "--out", str(out)
    )
    assert code == 0
    assert load_tensor(out).shape == (4, 5)

    csv_out = tmp_path / "v.csv"
    code, _, _ = run(capsys, "gen", "--dist", "uniform(-1,1)", "--shape", "7", "--out", str(csv_out))
    assert code == 0
    assert load_tensor(csv_out).size == 7

    code, _, _ = run(capsys, "gen", "--dist", "laplace(0.5)", "--shape", "7", "--out", str(csv_out))
    assert code == 0
    assert np.array_equal(load_tensor(csv_out), generate(SyntheticSpec("laplace", 7, 0, (0.5,))))


def test_gen_standard_normal_alias(tmp_path, capsys):
    a = tmp_path / "a.fqt"
    b = tmp_path / "b.fqt"
    run(capsys, "gen", "--dist", "standard-normal", "--shape", "32", "--out", str(a))
    run(capsys, "gen", "--dist", "normal", "--shape", "32", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


_GEN_USAGE_ERRORS = [
    (("--dist", "cauchy", "--shape", "10"), "unknown distribution 'cauchy'"),
    (("--dist", "lognormal(0,-1)", "--shape", "10"), "lognormal sigma must be positive"),
    (("--dist", "normal"), "the following arguments are required: --shape"),
    (("--dist", "normal", "--shape", "5", "--n", "5"), "unrecognized arguments: --n 5"),
    (("--dist", "normal", "--shape", "0"), "--shape takes one or two positive dimensions"),
    (("--dist", "normal", "--shape", "-2", "3"), "--shape takes one or two positive"),
    (("--dist", "normal", "--shape", "2", "3", "4"), "--shape takes one or two positive"),
    (("--dist", "normal", "--shape", "1_0"), "invalid _number value: '1_0'"),
    (("--dist", "normal", "--shape", "١٢"), "invalid _number value: '١٢'"),
    (("--dist", "normal", "--shape", "10", "--seed", "1_0"), "invalid _number value"),
    (("--dist", "laplace", "--shape", "10"), "laplace takes 1 parameter(s), got 0"),
    (("--dist", "normal(1", "--shape", "10"), "cannot parse distribution 'normal(1'"),
    (("--dist", "laplace(x)", "--shape", "10"), "bad parameter in distribution 'laplace(x)'"),
    (("--dist", "laplace(1_0)", "--shape", "10"), "bad parameter in distribution"),
    (("--dist", "laplace(١)", "--shape", "10"), "bad parameter in distribution"),
    # Finite parameters whose draw overflows the float64 range.
    (
        ("--dist", "uniform(-1e308,1e308)", "--shape", "4"),
        "bitquant: uniform(-1e+308,1e+308) draws values beyond the float64 range\n",
    ),
]


@pytest.mark.parametrize(
    "args, message",
    _GEN_USAGE_ERRORS,
    ids=[f"argv{i}" for i in range(len(_GEN_USAGE_ERRORS))],
)
def test_gen_usage_errors(tmp_path, capsys, args, message, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, "gen", *args, "--out", "x.fqt")
    assert code == 1
    assert stdout == "" and message in stderr
    assert not (tmp_path / "x.fqt").exists()


def test_gen_beyond_float32_range_writes_nothing(tmp_path, capsys):
    out = tmp_path / "ln.fqt"
    code, stdout, stderr = run(
        capsys, "gen", "--dist", "lognormal(0,40)", "--shape", "1000", "--seed", "1",
        "--out", str(out),
    )
    assert code == 1
    assert stdout == "" and "float32 range" in stderr
    assert not out.exists()


# --- quantize -------------------------------------------------------------


def test_quantize_pipeline_matches_library(tmp_path, capsys):
    x_path = tmp_path / "x.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "500", "--seed", "3", "--out", str(x_path))
    out = tmp_path / "q.bqt"
    recon = tmp_path / "r.fqt"
    code, stdout, _ = run(
        capsys,
        "quantize",
        "--in", str(x_path),
        "--method", "ls2",
        "--out", str(out),
        "--recon", str(recon),
    )
    assert code == 0
    payload = last_json(stdout)
    assert payload["method"] == "ls2" and payload["k"] == 2

    x = load_tensor(x_path)
    q = quantize_ls2(x)
    assert payload["levels"] == [float(v) for v in q.levels]
    pq = load_packed(out)
    assert np.array_equal(pq.levels, q.levels)
    # The reconstruction file holds the dequantized vector at float32 width.
    recon_data = load_tensor(recon)
    expected = (q.levels @ q.planes.astype(np.float64)).astype(np.float32)
    assert np.array_equal(recon_data, expected.astype(np.float64))


def test_quantize_csv_input(tmp_path, capsys):
    x_path = tmp_path / "x.csv"
    save_tensor([1.0, -2.0, 3.0, -4.0], x_path)
    out = tmp_path / "q.bqt"
    code, stdout, _ = run(
        capsys, "quantize", "--in", str(x_path), "--method", "greedy-3",
        "--out", str(out),
    )
    assert code == 0
    assert last_json(stdout)["k"] == 3
    assert load_packed(out).k == 3


def test_quantize_lloyd_serializes_plane_form(tmp_path, capsys):
    x_path = tmp_path / "x.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "200", "--out", str(x_path))
    out = tmp_path / "q.bqt"
    code, stdout, _ = run(
        capsys, "quantize", "--in", str(x_path), "--method", "lloyd-2", "--out", str(out)
    )
    assert code == 0
    assert last_json(stdout)["method"] == "lloyd"
    assert load_packed(out).k == 2


def test_quantize_lloyd_output_ignores_the_reseed_count(tmp_path, capsys):
    # This fit reseeds one codeword; the count stays out of the summary
    # and the BQT bytes.
    x = np.array([0.0, 1.0, 2.0, 4.0, 5.0])
    x_path = tmp_path / "x.csv"
    save_tensor(x, x_path)
    out = tmp_path / "q.bqt"
    code, stdout, _ = run(
        capsys, "quantize", "--in", str(x_path), "--method", "lloyd-2", "--out", str(out)
    )
    assert code == 0
    assert set(last_json(stdout)) == {"method", "k", "n", "mse", "levels", "out"}
    lq = quantize_lloyd(x, 2)
    assert lq.reseeds == 1
    bare = tmp_path / "bare.bqt"
    save_packed(pack_quantization(lloyd_to_scaled_binary(replace(lq, reseeds=None))), bare)
    assert out.read_bytes() == bare.read_bytes()


def test_quantize_lloyd_near_the_float64_maximum(tmp_path, capsys):
    x_path = tmp_path / "x.csv"
    x_path.write_text("1e308,1.5e308,1.7e308,-1e308,-1.6e308,3e307\n")
    code, stdout, _ = run(
        capsys, "quantize", "--in", str(x_path), "--method", "lloyd-1",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 0
    assert 1e308 < last_json(stdout)["levels"][0] < 1.7e308


def test_quantize_refuses_a_width_past_bqt1_before_fitting(tmp_path, capsys, monkeypatch):
    x_path = tmp_path / "x.csv"
    x_path.write_text("1.0,-2.0,3.0\n")
    fits = []
    monkeypatch.setitem(cli._FAMILIES, "greedy", (lambda x, k: fits.append(k), None))
    for width in (65, 2_000_000_000):
        out = tmp_path / "q.bqt"
        code, stdout, stderr = run(
            capsys, "quantize", "--in", str(x_path), "--method", f"greedy-{width}",
            "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr == f"bitquant: BQT1 holds at most 64 planes, got {width}\n"
    assert fits == []


def test_quantize_errors(tmp_path, capsys):
    x_path = tmp_path / "x.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "10", "--out", str(x_path))

    code, _, stderr = run(
        capsys, "quantize", "--in", str(x_path), "--method", "ls2", "--bits", "3",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 1  # --bits is not an option; the width lives in the token
    assert "unrecognized arguments: --bits 3" in stderr

    code, _, _ = run(
        capsys, "quantize", "--in", str(x_path), "--method", "vq",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 1

    code, _, stderr = run(
        capsys, "quantize", "--in", str(x_path), "--format", "csv", "--method", "ls1",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 1  # the file name picks the format
    assert "unrecognized arguments: --format csv" in stderr

    code, _, stderr = run(
        capsys, "quantize", "--in", str(x_path), "--method", "greedy-x",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 1
    assert stderr == "bitquant: bit width in 'greedy-x' must be an integer\n"

    code, _, stderr = run(
        capsys, "quantize", "--in", str(x_path), "--method", "greedy-0",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 1
    assert stderr == "bitquant: bit width 0 for 'greedy-0' must be positive\n"

    wide = tmp_path / "wide.bqt"
    code, _, stderr = run(
        capsys, "quantize", "--in", str(x_path), "--method", "greedy-65", "--out", str(wide)
    )
    assert code == 1
    assert stderr == "bitquant: BQT1 holds at most 64 planes, got 65\n"
    assert not wide.exists()

    # Both outputs are checked before either is written: a reconstruction
    # beyond the float32 range of FQT, or more planes than BQT1 holds.
    big = tmp_path / "big.csv"
    big.write_text("1e300,-2e300,3.0")
    for source, method in ((big, "ls1"), (x_path, "greedy-65")):
        out, recon = tmp_path / "q.bqt", tmp_path / "r.fqt"
        code, stdout, stderr = run(
            capsys, "quantize", "--in", str(source), "--method", method,
            "--out", str(out), "--recon", str(recon),
        )
        assert code == 1 and stdout == ""
        assert not out.exists() and not recon.exists()
    assert stderr == "bitquant: BQT1 holds at most 64 planes, got 65\n"

    # The --recon name is checked before anything is written.
    refused = tmp_path / "refused.bqt"
    code, stdout, stderr = run(
        capsys, "quantize", "--in", str(x_path), "--method", "ls2",
        "--out", str(refused), "--recon", str(tmp_path / "r.txt"),
    )
    assert code == 1 and stdout == "" and not refused.exists()
    assert "name it .fqt or .csv, or pass fmt='fqt' or 'csv'" in stderr

    code, _, _ = run(
        capsys, "quantize", "--in", str(tmp_path / "missing.fqt"), "--method", "ls1",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 2

    corrupt = tmp_path / "corrupt.fqt"
    corrupt.write_bytes(b"garbage-not-a-tensor")
    code, _, _ = run(
        capsys, "quantize", "--in", str(corrupt), "--method", "ls1",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 2

    undecodable = tmp_path / "utf16.csv"
    undecodable.write_bytes(b"\xff\xfe1\x00,\x002\x00")
    code, _, stderr = run(
        capsys, "quantize", "--in", str(undecodable), "--method", "ls1",
        "--out", str(tmp_path / "q.bqt"),
    )
    assert code == 2 and "does not decode" in stderr


# --- analyze --------------------------------------------------------------


def test_analyze_csv_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, _ = run(
        capsys,
        "analyze",
        "--spec", "normal:4096",
        "--spec", "laplace(1):4096",
        "--methods", "ls1,ls2,ternary",
        "--seeds", "2",
        "--out", str(out),
    )
    assert code == 0
    payload = last_json(stdout)
    assert payload["rows"] == 12 and payload["failures"] == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,k,distribution")
    assert len(lines) == 13


def test_analyze_json_report_with_bits(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "analyze",
        "--spec", "normal:256",
        "--methods", "greedy-1,greedy-2,greedy-4",
        "--out", str(out),
    )
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["k"] for r in rows] == [1, 2, 4]


def test_analyze_report_format_follows_the_out_name(tmp_path, capsys):
    csv_out, json_out = tmp_path / "r.txt", tmp_path / "R.JSON"
    for out in (csv_out, json_out):
        code, _, _ = run(
            capsys, "analyze", "--spec", "normal:100", "--methods", "ls1", "--out", str(out)
        )
        assert code == 0
    assert csv_out.read_text().startswith("method,k,distribution")
    assert json.loads(json_out.read_text())["rows"][0]["method"] == "ls1"

    code, _, stderr = run(
        capsys, "analyze", "--spec", "normal:100", "--methods", "ls1", "--format", "json",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1 and "unrecognized arguments: --format json" in stderr


def test_analyze_reports_row_failures_to_stderr(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, stderr = run(
        capsys,
        "analyze",
        "--spec", "normal:64",
        "--methods", "ls1,lloyd-17",
        "--out", str(out),
    )
    assert code == 0
    assert last_json(stdout)["failures"] == 1
    assert "row failed" in stderr


def test_analyze_one_bit_angle_is_near_the_normal_constant(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "analyze", "--spec", "normal:200000", "--methods", "ls1",
        "--out", str(out),
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    angle_degrees = float(row[6])
    assert abs(angle_degrees - 37.0714) < 0.2


def test_analyze_bad_spec(tmp_path, capsys):
    code, _, _ = run(
        capsys, "analyze", "--spec", "normal", "--methods", "ls1",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1

    for spec in ("normal:abc", "normal:1_0", "normal:١٠"):
        code, _, stderr = run(
            capsys, "analyze", "--spec", spec, "--methods", "ls1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert stderr == f"bitquant: bad element count in spec {spec!r}\n"

    code, _, stderr = run(
        capsys, "analyze", "--spec", "normal:10", "--methods", ",",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert stderr == "bitquant: --methods must name at least one method\n"

    code, _, stderr = run(
        capsys, "analyze", "--spec", "normal:10", "--methods", "ls1", "--seeds", "1_0",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1 and "invalid _number value: '1_0'" in stderr

    code, _, stderr = run(
        capsys, "analyze", "--spec", "normal:10", "--methods", "greedy-x",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert stderr == "bitquant: bit width in 'greedy-x' must be an integer\n"

    code, _, stderr = run(
        capsys, "analyze", "--spec", "normal:10", "--methods", "greedy-2,greedy-0",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert stderr == "bitquant: bit width 0 for 'greedy-0' must be positive\n"

    code, _, stderr = run(
        capsys, "analyze", "--spec", "normal:10", "--methods", "greedy-3", "--bits", "3",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1 and "unrecognized arguments: --bits 3" in stderr

    code, _, stderr = run(
        capsys, "analyze", "--spec", "laplace(1e308):4", "--methods", "ls1",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert stderr == "bitquant: laplace(1e+308) draws values beyond the float64 range\n"

    out = tmp_path / "seeds.csv"
    for seeds in ("0", "-2"):
        code, _, stderr = run(
            capsys, "analyze", "--spec", "normal:10", "--methods", "ls1", "--seeds", seeds,
            "--out", str(out),
        )
        assert code == 1
        assert stderr == "bitquant: --seeds must be at least 1\n"
        assert not out.exists()


# --- curve ----------------------------------------------------------------


def test_curve_analytic_normal(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(
        capsys, "curve", "--dist", "normal", "--grid", "400", "--out", str(out)
    )
    assert code == 0
    payload = last_json(stdout)
    assert payload["optimum"] == pytest.approx(0.981598821568, abs=1e-6)
    best = min(payload["intersections"], key=lambda s: s["objective"])
    assert best["objective"] == pytest.approx(0.117481847829, abs=1e-6)
    lines = out.read_text().splitlines()
    assert lines[0] == "v,lower_mean,upper_mean,average"
    assert len(lines) == 401


def test_curve_analytic_aliases(tmp_path, capsys):
    outputs = []
    for dist in ("normal", "standard-normal", "normal()"):
        out = tmp_path / "curve.csv"
        code, stdout, _ = run(capsys, "curve", "--dist", dist, "--grid", "20", "--out", str(out))
        assert code == 0
        outputs.append((stdout, out.read_bytes()))
    assert outputs[1:] == outputs[:1] * 2


def test_curve_empirical(tmp_path, capsys):
    x_path = tmp_path / "x.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "50000", "--seed", "2", "--out", str(x_path))
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(capsys, "curve", "--in", str(x_path), "--grid", "300", "--out", str(out))
    assert code == 0
    payload = last_json(stdout)
    assert payload["optimum"] == pytest.approx(0.9816, abs=0.05)


def test_curve_usage_errors(tmp_path, capsys):
    x_path = tmp_path / "x.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "10", "--out", str(x_path))
    out = str(tmp_path / "c.csv")

    code, _, stderr = run(capsys, "curve", "--grid", "10", "--out", out)
    assert code == 1 and "one of the arguments --in --dist is required" in stderr
    code, _, stderr = run(capsys, "curve", "--in", str(x_path), "--dist", "normal", "--grid", "10", "--out", out)
    assert code == 1 and "not allowed with argument" in stderr
    code, _, _ = run(capsys, "curve", "--dist", "laplace", "--grid", "10", "--out", out)
    assert code == 1  # analytic curve only for normal
    code, _, _ = run(capsys, "curve", "--dist", "normal", "--grid", "1", "--out", out)
    assert code == 1


def test_curve_rejects_zero_data(tmp_path, capsys):
    x_path = tmp_path / "z.csv"
    x_path.write_text("0,0,0,0\n")
    code, _, _ = run(capsys, "curve", "--in", str(x_path), "--grid", "10", "--out", str(tmp_path / "c.csv"))
    assert code == 2


# --- energy ---------------------------------------------------------------


def test_energy_report(tmp_path, capsys):
    x_path = tmp_path / "m.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "40", "40", "--out", str(x_path))
    out = tmp_path / "energy.json"
    code, stdout, _ = run(capsys, "energy", "--in", str(x_path), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["shape"] == [40, 40]
    assert len(report["singular_energies"]) == 8  # default --top
    assert report["ratio_1"] == pytest.approx(last_json(stdout)["ratio_1"])
    assert report["rank1_residual_fro2"] <= report["channel_mean_residual_fro2"] + 1e-9
    assert report["rank1_sigma"] ** 2 == pytest.approx(
        report["singular_energies"][0], rel=1e-9
    )


def test_energy_requires_matrix(tmp_path, capsys):
    x_path = tmp_path / "v.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "100", "--out", str(x_path))
    code, _, _ = run(capsys, "energy", "--in", str(x_path), "--out", str(tmp_path / "e.json"))
    assert code == 2


def test_energy_top_validation(tmp_path, capsys):
    x_path = tmp_path / "m.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "5", "5", "--out", str(x_path))
    code, _, _ = run(
        capsys, "energy", "--in", str(x_path), "--top", "9", "--out", str(tmp_path / "e.json")
    )
    assert code == 1


def test_energy_nonconvergence_exits_three(tmp_path, capsys, monkeypatch):
    x_path = tmp_path / "m.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "5", "5", "--out", str(x_path))

    def stalled(data):
        raise ConvergenceError("power iteration did not settle in 0 iterations")

    monkeypatch.setattr(cli, "rank1_binary", stalled)
    out = tmp_path / "e.json"
    code, stdout, stderr = run(capsys, "energy", "--in", str(x_path), "--out", str(out))
    assert code == 3
    assert stdout == ""
    assert stderr == "bitquant: power iteration did not settle in 0 iterations\n"
    assert not out.exists()


# --- top-level behavior ---------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["gemm-check"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_non_finite_values_are_written_as_null(tmp_path, capsys):
    # The split objective near 1e170 and the mse near 1e300 overflow to inf.
    big = tmp_path / "big.csv"
    big.write_text("1e170,1.5e170,2e170,2.5e170,3e170\n")
    code, stdout, _ = run(
        capsys, "curve", "--in", str(big), "--grid", "10", "--out", str(tmp_path / "c.csv")
    )
    assert code == 0
    payload = json.loads(stdout)
    assert all(s["objective"] is None for s in payload["intersections"])
    assert payload["optimum"] in [s["v"] for s in payload["intersections"]]

    huge = tmp_path / "huge.csv"
    huge.write_text("1e300,-2e300,3e300\n")
    # pytest records warnings instead of printing them, so raise them here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(
            capsys, "quantize", "--in", str(huge), "--method", "ls1",
            "--out", str(tmp_path / "q.bqt"),
        )
    assert code == 0 and stderr == ""
    payload = json.loads(stdout)
    assert payload["mse"] is None and payload["levels"] == [2e300]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme.split("\n## CLI\n", 1)[1], re.S).group(1)
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("bitquant ")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_readme_quick_start_prints_its_commented_numbers(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(source, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [
        line.split("#", 1)[1] for line in source.splitlines() if line.startswith("print(")
    ]
    assert len(printed) == len(comments) == 3
    number = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")
    for out, comment in zip(printed, comments):
        assert number.findall(out) == number.findall(comment), (out, comment)


def test_unwritable_output_is_data_error(tmp_path, capsys):
    x_path = tmp_path / "x.fqt"
    run(capsys, "gen", "--dist", "normal", "--shape", "10", "--out", str(x_path))
    code, _, _ = run(
        capsys, "quantize", "--in", str(x_path), "--method", "ls1",
        "--out", str(tmp_path / "no" / "such" / "dir" / "q.bqt"),
    )
    assert code == 2
