import hashlib
import os
import subprocess
import sys

import pytest

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
    result = run_cli("exact", "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5")
    assert result.returncode == 0
    assert result.stdout == b"(a,b) 3\n"


def test_exact_csv_format_keeps_keys_with_commas_apart(tmp_path):
    stream = tmp_path / "stream.tsv"
    write_stream(stream, [(b"a,b", b"c"), (b"a", b"b,c")] * 2)
    args = ("exact", "--in", str(stream), "--phi1", "0.4", "--phi2", "0.5")
    # The text form prints both pairs the same way; CSV quotes the commas.
    assert run_cli(*args).stdout == b"(a,b,c) 2\n" * 2
    result = run_cli(*args, "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == b'd,s,count\na,"b,c",2\n"a,b",c,2\n'


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("command", ["exact", "evaluate"])
def test_multipass_commands_exit_2_on_a_pipe(tmp_path, command):
    sweep = tmp_path / "sweep.csv"
    extra = ["--s1-list", "4", "--s2-list", "4", "--out", str(sweep)] if command == "evaluate" else []
    result = run_cli(command, "--in", "/dev/stdin", "--phi1", "0.3", "--phi2", "0.3", *extra,
                     stdin=b"a\tx\na\tx\n")
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"pass 1 read 2 tuples but pass 2 read 0" in result.stderr
    assert not sweep.exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_evaluate_reads_a_pipe_when_no_later_pass_runs(tmp_path):
    # Four primaries of one tuple each: (8, 2) sheds nothing, so every row is
    # read off it, and no primary's due (1) exceeds floor(0.3 * 4).
    data = b"a\tx\nb\ty\nc\tx\nd\ty\n"
    stream = tmp_path / "stream.tsv"
    stream.write_bytes(data)
    args = ("--phi1", "0.3", "--phi2", "0.3", "--s1-list", "4,8", "--s2-list", "1,2")
    from_file, from_pipe = tmp_path / "file.csv", tmp_path / "pipe.csv"
    assert run_cli("evaluate", "--in", str(stream), *args, "--out", str(from_file)).returncode == 0
    result = run_cli("evaluate", "--in", "/dev/stdin", *args, "--out", str(from_pipe), stdin=data)
    assert result.returncode == 0, result.stderr
    assert from_pipe.read_bytes() == from_file.read_bytes()


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


@pytest.mark.parametrize("out", ["dir", "missing/out"])
@pytest.mark.parametrize("command", ["build", "evaluate"])
def test_unwritable_out_exits_two_before_reading_input(tmp_path, command, out):
    # Both commands warn about the malformed line only once they have read it.
    (tmp_path / "dir").mkdir()
    stream = tmp_path / "stream.tsv"
    stream.write_bytes(b"a\tb\nbroken\n")
    sizes = ["--s1", "1", "--s2", "1"] if command == "build" else ["--s1-list", "1", "--s2-list", "1"]
    result = run_cli(command, "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5", *sizes,
                     "--out", str(tmp_path / out))
    assert result.returncode == 2
    assert result.stderr.startswith(b"chh: error: --out ")
    assert b"warning" not in result.stderr


def test_failed_build_leaves_an_existing_snapshot_as_it_was(tmp_path):
    stream = tmp_path / "stream.tsv"
    snap = tmp_path / "sk.snap"
    build = ("build", "--in", str(stream), "--phi1", "0.5", "--phi2", "0.5",
             "--s1", "4", "--s2", "4", "--out", str(snap), "--strict")
    write_stream(stream, [(b"a", b"b")] * 3)
    assert run_cli(*build).returncode == 0
    saved = snap.read_bytes()
    stream.write_bytes(b"c\td\nbroken\n")
    assert run_cli(*build).returncode == 2
    assert snap.read_bytes() == saved


def test_corrupt_snapshot_exits_two(tmp_path):
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 2, 2))
    out_of_range = sketch_to_bytes(sketch).replace(b"s1 2", b"s1 0")
    bad = tmp_path / "bad.snap"
    for blob in (b"not a snapshot\n", out_of_range):
        bad.write_bytes(blob)
        assert main(["report", "--sketch", str(bad)]) == 2


def test_report_exits_two_on_a_snapshot_no_stream_reaches(tmp_path):
    # One tuple cannot leave an empty inner table: its pair has lost no unit.
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 1, 1))
    sketch.update(b"a", b"b")
    blob = sketch_to_bytes(sketch)
    unreachable = blob.replace(b"p 61 1 1 1\ns 62 1\n", b"p 61 1 1 0\n")
    assert unreachable != blob
    bad = tmp_path / "bad.snap"
    bad.write_bytes(unreachable)
    result = run_cli("report", "--sketch", str(bad))
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"chh: error: entry for key b'a' violates")


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


def golden_tsv() -> bytes:
    """A fixed stream that exercises every rule of the line grammar.

    CRLF and LF terminators, a final line with none, a lone ``\\r`` inside a
    field and before the terminator, extra tabs, empty fields, non-UTF-8
    bytes, and two lines without a tab (one of them empty).
    """
    lines = []
    for i in range(40):
        lines += [b"a\tp\r\n", b"a\tp\rq\n", b"\xff\xfe\t\x80\n", b"c\tx\ty\n",
                  b"k%d\tv%d\n" % (i % 7, i % 3)]
        if i % 5 == 0:
            lines += [b"\t\n", b"d\t\n", b"\te\n"]
        if i % 3 == 0:
            lines.append(b"a\r\tp\r\r\n")
        if i == 17:
            lines.append(b"no separator\r\n")
        if i == 29:
            lines.append(b"\n")
    lines.append(b"c\tx\ty")
    return b"".join(lines)


GOLDEN_SNAPSHOT_SHA256 = "70a716a52de712641d56bb6aff73086e40520075c5a893cb6b1f7f3437375aba"
GOLDEN_SWEEP_SHA256 = "735ef119d118b94013420a6573949b5bb9a7eb83f0e8218ddfb40a42add26a61"
GOLDEN_REPORT_TEXT = (
    b"a 61\na p 21\na p\rq 40\na\r 1\na\r p\r 1\nc 22\nc x\ty 22\n"
    b"k4 1\nk4 v0 1\n\xff\xfe 21\n\xff\xfe \x80 21\n"
)
GOLDEN_REPORT_CSV = (
    b"kind,d,s,est_count\nprimary,a,,61\npair,a,p,21\npair,a,\"p\rq\",40\n"
    b"primary,\"a\r\",,1\npair,\"a\r\",\"p\r\",1\nprimary,c,,22\npair,c,x\ty,22\n"
    b"primary,k4,,1\npair,k4,v0,1\nprimary,\xff\xfe,,21\npair,\xff\xfe,\x80,21\n"
)
GOLDEN_EXACT = b"(a,p) 40\n(a,p\rq) 40\n(c,x\ty) 41\n(\xff\xfe,\x80) 40\n"
SKIP_WARNING = b"warning: skipped 2 malformed line(s)\n"


def test_golden_outputs_on_quirky_lines(tmp_path):
    stream = tmp_path / "golden.tsv"
    stream.write_bytes(golden_tsv())
    sizes = ("--phi1", "0.1", "--phi2", "0.2", "--s1", "6", "--s2", "3")
    infeasible = (b"warning: table sizes do not meet the feasibility constraints; "
                  b"reports may miss guarantees\n")
    from_file, from_stdin = tmp_path / "file.snap", tmp_path / "stdin.snap"
    for snap, source in ((from_file, ("--in", str(stream))), (from_stdin, ())):
        built = run_cli("build", *source, *sizes, "--out", str(snap), stdin=golden_tsv())
        assert built.returncode == 0
        assert built.stderr == SKIP_WARNING + infeasible
        assert hashlib.sha256(snap.read_bytes()).hexdigest() == GOLDEN_SNAPSHOT_SHA256
    for fmt, expected in (("text", GOLDEN_REPORT_TEXT), ("csv", GOLDEN_REPORT_CSV)):
        report = run_cli("report", "--sketch", str(from_file), "--format", fmt)
        assert (report.returncode, report.stdout, report.stderr) == (0, expected, b"")
    exact = run_cli("exact", "--in", str(stream), "--phi1", "0.1", "--phi2", "0.2")
    assert (exact.returncode, exact.stdout, exact.stderr) == (0, GOLDEN_EXACT, SKIP_WARNING)
    out = tmp_path / "sweep.csv"
    evaluated = run_cli("evaluate", "--in", str(stream), "--phi1", "0.1", "--phi2", "0.2",
                        "--s1-list", "4,8", "--s2-list", "2,3", "--out", str(out))
    assert (evaluated.returncode, evaluated.stderr) == (0, SKIP_WARNING)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEP_SHA256


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
