import subprocess
import sys
from dataclasses import replace

import pytest

import cli_cases
from chh import ChhParams, ChhSketch, TsvTupleSource, exact_chh_naive, sketch_to_bytes
from chh.cli import _format_report_text, main
from conftest import read_by_lines


def run_cli(*argv, stdin: bytes = b""):
    """Run the CLI in a subprocess to capture exact output bytes."""
    return subprocess.run(
        [sys.executable, "-m", "chh", *argv],
        input=stdin,
        capture_output=True,
    )


def write_stream(path, tuples):
    path.write_bytes(b"".join(b"%s\t%s\n" % t for t in tuples))


def check_case(case, tmp_path):
    if case.skip_reason:
        pytest.skip(case.skip_reason)
    assert cli_cases.run_case(case, tmp_path) == []


def table_test(cases):
    """``test_x`` for the cases named ``x`` or ``x[y]``, so each keeps its old test id."""
    if "[" not in cases[0].name:
        return lambda tmp_path: check_case(cases[0], tmp_path)
    ids = [case.name.partition("[")[2][:-1] for case in cases]

    @pytest.mark.parametrize("case", cases, ids=ids)
    def test(case, tmp_path):
        check_case(case, tmp_path)
    return test


_by_base = {}
for _case in cli_cases.CASES:
    _by_base.setdefault(_case.name.partition("[")[0], []).append(_case)
for _base, _cases in _by_base.items():
    globals()["test_" + _base] = table_test(_cases)


def test_runner_reports_a_changed_byte(tmp_path):
    case = next(case for case in cli_cases.CASES if case.name == "solve_params_output_line")
    step = case.steps[0]
    changed = replace(case, steps=[replace(step, stdout=step.stdout.replace(b"440", b"441"))])
    mismatches = cli_cases.run_case(changed, tmp_path)
    assert len(mismatches) == 1 and mismatches[0].startswith("solve_params_output_line step 1 ")
    assert cli_cases.main([changed]) == 1


def test_usage_errors_exit_one():
    assert main(["solve-params", "--phi1", "0.1"]) == 1  # missing flags
    assert main(["no-such-command"]) == 1
    assert main(["solve-params", "--phi1", "bogus", "--phi2", "0.1",
                 "--eps1", "0.01", "--eps2", "0.05"]) == 1
    assert main(["solve-params", "--phi1", "0.1", "--phi2", "0.1",
                 "--eps1", "0.06", "--eps2", "0.05"]) == 1  # eps1 > phi1/2
    for non_finite in ("inf", "-Infinity"):
        assert main(["solve-params", "--phi1", non_finite, "--phi2", "0.1",
                     "--eps1", "0.01", "--eps2", "0.05"]) == 1
        assert main(["build", "--phi1", non_finite, "--phi2", "0.1",
                     "--s1", "4", "--s2", "4", "--out", "unused.snap"]) == 1
    # s1 would have 4301 digits, more than the interpreter formats
    huge = ["--phi1", "0.1", "--phi2", "0.1", "--eps1", "0.05", "--eps2", "1e-4299"]
    assert main(["solve-params", *huge]) == 1
    assert main(["build", *huge, "--out", "unused.snap"]) == 1
    # raw sizes under the digit limit whose implied eps2 is over it
    assert main(["build", "--in", "unused.tsv", "--phi1", "0.1", "--phi2", "0.1",
                 "--s1", str(10**3000 + 7), "--s2", str(10**2000 + 3),
                 "--out", "unused.snap"]) == 1
    # exact takes no --method flag
    assert main(["exact", "--in", "unused.tsv", "--phi1", "0.5", "--phi2", "0.5",
                 "--method", "naive"]) == 1
    # size lists are parsed before the (absent) input is opened
    for sizes in ("1000,,2000", "1000,"):
        assert main(["evaluate", "--in", "unused.tsv", "--phi1", "0.1", "--phi2", "0.1",
                     "--s1-list", sizes, "--s2-list", "20", "--out", "unused.csv"]) == 1


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
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 2, 2))
    out_of_range = sketch_to_bytes(sketch).replace(b"s1 2", b"s1 0")
    bad = tmp_path / "bad.snap"
    for blob in (b"not a snapshot\n", out_of_range):
        bad.write_bytes(blob)
        assert main(["report", "--sketch", str(bad)]) == 2


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


def boundary_tsv() -> bytes:
    """More than three 64 KiB blocks of clean lines, with the quirks set among them.

    The first block ends between the ``\\r`` and ``\\n`` of a CRLF line; the
    second holds the one tab-less line; the third holds a run of CRLF lines and
    the one line with a tab in ``y``; the stream ends with no ``\\n``.
    """
    def clean(start, stop):
        return b"".join(b"p%d\ts%d\n" % (i % 13, i % 7) for i in range(start, stop))

    head = clean(0, 7000)
    head += b"p5\t" + b"z" * (65536 - len(head) - len(b"p5\t\np1\ts1\r")) + b"\n"
    head += b"p1\ts1\r\n"
    assert len(head) == 65537 and head[65535:65537] == b"\r\n"
    return b"".join([
        head, clean(0, 5000), b"no separator\n", clean(5000, 13000),
        b"p2\ts2\r\n" * 50, b"p3\tx\ty\n", clean(13000, 30000), b"p4\ts4",
    ])


def test_block_boundaries_give_the_line_reader_outputs(tmp_path):
    stream = tmp_path / "boundary.tsv"
    stream.write_bytes(boundary_tsv())
    assert stream.stat().st_size > 3 * 65536
    tuples, skipped, _ = read_by_lines(stream.read_bytes(), strict=False)
    assert skipped == 1
    warning = b"warning: skipped 1 malformed line(s)\n"

    exact = run_cli("exact", "--in", str(stream), "--phi1", "0.01", "--phi2", "0.1")
    expected = sorted(exact_chh_naive(tuples, "0.01", "0.1").pairs.items())
    assert expected
    assert exact.stdout == b"".join(b"(%s,%s) %d\n" % (d, s, c) for (d, s), c in expected)
    assert (exact.returncode, exact.stderr) == (0, warning)

    snap = tmp_path / "boundary.snap"
    built = run_cli("build", "--in", str(stream), "--phi1", "0.01", "--phi2", "0.1",
                    "--s1", "8", "--s2", "4", "--out", str(snap))
    assert built.returncode == 0
    assert built.stderr.startswith(warning)
    sketch = ChhSketch(ChhParams.from_raw("0.01", "0.1", 8, 4))
    sketch.consume(tuples)
    assert snap.read_bytes() == sketch_to_bytes(sketch)


def test_generate_without_numpy_is_a_usage_error(tmp_path):
    out = tmp_path / "x.tsv"
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from chh.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "generate", "--n", "10", "--primary-domain", "20",
         "--secondary-domain", "3", "--out", str(out)],
        capture_output=True,
    )
    assert result.returncode == 1
    assert b"chh: error:" in result.stderr and b"numpy" in result.stderr
    assert b"pip install 'chh[generate]'" in result.stderr
    assert b"Traceback" not in result.stderr
    assert not out.exists()
