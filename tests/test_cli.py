import subprocess
import sys

import pytest

import chh.cli
from chh import ChhParams, ChhSketch, ResourceLimitError, TsvTupleSource
from chh.cli import _format_report_text, main


def run_cli(*argv, stdin: bytes = b""):
    """Run the CLI in a subprocess to capture exact output bytes."""
    return subprocess.run(
        [sys.executable, "-m", "chh", *argv],
        input=stdin,
        capture_output=True,
    )


def write_stream(path, tuples):
    path.write_bytes(b"".join(b"%s\t%s\n" % t for t in tuples))


def test_solve_params_output_line():
    result = run_cli("solve-params", "--phi1", "0.1", "--phi2", "0.1",
                     "--eps1", "0.05", "--eps2", "0.1")
    assert result.returncode == 0
    assert result.stdout == b"s1=440 s2=20 case=I\n"


def test_solve_params_case_two():
    result = run_cli("solve-params", "--phi1", "0.5", "--phi2", "0.5",
                     "--eps1", "0.01", "--eps2", "0.25")
    assert result.stdout == b"s1=100 s2=5 case=II\n"


def test_build_and_report_flow(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")] * 10)
    snap = tmp_path / "sk.snap"
    built = run_cli("build", "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5",
                    "--s1", "4", "--s2", "4", "--out", str(snap))
    assert built.returncode == 0
    assert snap.exists()
    report = run_cli("report", "--sketch", str(snap))
    assert report.returncode == 0
    assert report.stdout == b"a 10\na b 10\n"


def test_report_csv_format(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")] * 10)
    snap = tmp_path / "sk.snap"
    run_cli("build", "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5",
            "--s1", "4", "--s2", "4", "--out", str(snap))
    report = run_cli("report", "--sketch", str(snap), "--format", "csv")
    assert report.stdout == b"kind,d,s,est_count\nprimary,a,,10\npair,a,b,10\n"


def test_build_from_stdin(tmp_path):
    snap = tmp_path / "sk.snap"
    built = run_cli("build", "--phi1", "0.5", "--phi2", "0.5",
                    "--s1", "4", "--s2", "4", "--out", str(snap),
                    stdin=b"a\tb\n" * 10)
    assert built.returncode == 0
    report = run_cli("report", "--sketch", str(snap))
    assert report.stdout == b"a 10\na b 10\n"


def test_build_solver_mode_with_default_tolerances(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")] * 4)
    snap = tmp_path / "sk.snap"
    built = run_cli("build", "--in", str(stream), "--phi1", "0.2", "--phi2", "0.2",
                    "--out", str(snap))
    assert built.returncode == 0
    assert built.stderr == b""  # solver sizes always satisfy the constraints


def test_exact_output(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")] * 3 + [(b"c", b"d")])
    for method in ("multipass", "naive"):
        result = run_cli("exact", "--in", str(stream), "--phi1", "0.5",
                         "--phi2", "0.5", "--method", method)
        assert result.returncode == 0
        assert result.stdout == b"(a,b) 3\n"


def test_evaluate_writes_csv(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")] * 30 + [(b"c", b"d")] * 10)
    out = tmp_path / "sweep.csv"
    result = run_cli("evaluate", "--in", str(stream), "--phi1", "0.5",
                     "--phi2", "0.5", "--s1-list", "2,4", "--s2-list", "2",
                     "--out", str(out))
    assert result.returncode == 0
    lines = out.read_bytes().decode().splitlines()
    assert lines[0].startswith("s1,s2,n,primary_max")
    assert len(lines) == 3


def test_usage_errors_exit_one():
    assert main(["solve-params", "--phi1", "0.1"]) == 1  # missing flags
    assert main(["no-such-command"]) == 1
    assert main(["solve-params", "--phi1", "bogus", "--phi2", "0.1",
                 "--eps1", "0.01", "--eps2", "0.05"]) == 1
    assert main(["solve-params", "--phi1", "0.1", "--phi2", "0.1",
                 "--eps1", "0.06", "--eps2", "0.05"]) == 1  # eps1 > phi1/2


def test_build_flag_combinations_rejected(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")])
    snap = str(tmp_path / "sk.snap")
    assert main(["build", "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5",
                 "--s1", "4", "--out", snap]) == 1
    assert main(["build", "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5",
                 "--s1", "4", "--s2", "4", "--eps1", "0.1", "--out", snap]) == 1


def test_missing_input_file_exits_two(tmp_path):
    assert main(["exact", "--in", str(tmp_path / "absent.tsv"),
                 "--phi1", "0.5", "--phi2", "0.5"]) == 2


def test_corrupt_snapshot_exits_two(tmp_path):
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"not a snapshot\n")
    assert main(["report", "--sketch", str(bad)]) == 2


def test_resource_limit_exits_three(tmp_path, monkeypatch):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a", b"b")])

    def blow_up(*args, **kwargs):
        raise ResourceLimitError("cap exceeded")

    monkeypatch.setattr(chh.cli, "exact_chh_naive", blow_up)
    assert main(["exact", "--in", str(stream), "--phi1", "0.5",
                 "--phi2", "0.5", "--method", "naive"]) == 3


def test_cli_report_matches_in_memory_build(tmp_path):
    stream = tmp_path / "stream.tsv"
    tuples = [(b"a", b"p")] * 6 + [(b"b", b"q")] * 3 + [(b"c", b"r")]
    write_stream(stream, tuples)
    snap = tmp_path / "sk.snap"
    run_cli("build", "--in", str(stream), "--phi1", "0.2", "--phi2", "0.2",
            "--s1", "4", "--s2", "4", "--out", str(snap))
    via_cli = run_cli("report", "--sketch", str(snap)).stdout

    sketch = ChhSketch(ChhParams.from_raw("0.2", "0.2", 4, 4))
    sketch.consume(TsvTupleSource(stream))
    assert via_cli == _format_report_text(sketch.report())


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_malformed_lines_strict_vs_lenient(tmp_path, via):
    data = b"a\tb\nbroken\na\tb\n"
    stream = tmp_path / "stream.tsv"
    stream.write_bytes(data)
    snap = tmp_path / "sk.snap"
    source = ["--in", str(stream)] if via == "file" else []

    def build(*extra):
        return run_cli("build", *source, "--phi1", "0.5", "--phi2", "0.5",
                       "--s1", "4", "--s2", "4", "--out", str(snap), *extra, stdin=data)

    strict = build("--strict")
    assert strict.returncode == 2
    lenient = build()
    assert lenient.returncode == 0
    assert b"skipped 1 malformed line" in lenient.stderr
    report = run_cli("report", "--sketch", str(snap))
    assert report.stdout == b"a 2\na b 2\n"


def test_exact_warns_on_malformed_lines(tmp_path):
    clean, broken = tmp_path / "clean.tsv", tmp_path / "broken.tsv"
    clean.write_bytes(b"a\tb\na\tb\nc\td\n")
    broken.write_bytes(b"a\tb\nbroken\na\tb\nc\td\n")
    args = ("--phi1", "0.5", "--phi2", "0.5")
    expected = run_cli("exact", "--in", str(clean), *args)
    result = run_cli("exact", "--in", str(broken), *args)
    assert result.returncode == 0
    assert result.stderr == b"warning: skipped 1 malformed line(s)\n"
    assert expected.stderr == b""
    assert result.stdout == expected.stdout == b"(a,b) 2\n"


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_identical_invocations_are_byte_identical(tmp_path, fmt):
    stream = tmp_path / "z.tsv"
    gen = run_cli("generate", "--n", "3000", "--primary-domain", "80",
                  "--secondary-domain", "20", "--skew1", "1.2", "--skew2", "1.0",
                  "--seed", "5", "--out", str(stream))
    assert gen.returncode == 0
    first_bytes = stream.read_bytes()
    run_cli("generate", "--n", "3000", "--primary-domain", "80",
            "--secondary-domain", "20", "--skew1", "1.2", "--skew2", "1.0",
            "--seed", "5", "--out", str(stream))
    assert stream.read_bytes() == first_bytes

    snap_a, snap_b = tmp_path / "a.snap", tmp_path / "b.snap"
    for snap in (snap_a, snap_b):
        run_cli("build", "--in", str(stream), "--phi1", "0.05", "--phi2", "0.2",
                "--s1", "30", "--s2", "10", "--out", str(snap))
    assert snap_a.read_bytes() == snap_b.read_bytes()

    reports = [
        run_cli("report", "--sketch", str(snap_a), "--format", fmt).stdout
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
