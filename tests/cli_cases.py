"""The CLI's golden cases: one table of exact output bytes, and its runner.

Each case runs in a fresh temporary directory through ``python -m chh`` with
relative paths, so a message that names a file reads the same on every run.
The test suite runs every case as its own test (``tests/test_cli.py``). Without
pytest, ``python tests/cli_cases.py`` runs the table, prints each mismatch
and exits 1 if there is any. This file imports only the standard library. A
deliberate change to the CLI's output bytes is an edit to this table.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Step:
    """One ``chh`` run, split on spaces, and everything it must produce.

    ``writes`` rewrites input files before the run. ``files`` maps an output
    file to its bytes, its ``"sha256:<hex>"`` digest, or None: must not exist.
    """

    argv: str
    stdout: bytes = b""
    stderr: bytes = b""
    code: int = 0
    stdin: bytes = b""
    writes: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)


@dataclass
class Case:
    """Input files (a name ending in ``/`` is an empty directory) and steps.

    A name ``x[y]`` is parameter ``y`` of the pytest test ``test_x``.
    """

    name: str
    inputs: dict
    steps: list

    @property
    def skip_reason(self):
        reads_stdin = any("/dev/stdin" in step.argv for step in self.steps)
        return "needs /dev/stdin" if reads_stdin and not os.path.exists("/dev/stdin") else None


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


def sweep(*rows):
    header = (b"s1,s2,n,primary_max,primary_avg,primary_theory,secondary_max,secondary_avg,"
              b"secondary_theory,reported_primaries,reported_pairs\n")
    return header + b"".join(row + b"\n" for row in rows)


P3 = "--phi1 0.3 --phi2 0.3"
THREE = b"a\tx\na\ty\nb\tx\n"
# Four primaries of one tuple each: at phi 0.3 no primary is a candidate, so
# `exact` and `evaluate` read the stream once, and so accept a pipe.
FLAT = b"a\tx\nb\ty\nc\tx\nd\ty\n"
FLAT_SWEEP = sweep(b"4,1,4,0,0,0.25,0,0,2.66666666667,4,4", b"4,2,4,0,0,0.25,0,0,2.16666666667,4,4",
                   b"8,1,4,0,0,0.125,0,0,1.71428571429,4,4",
                   b"8,2,4,0,0,0.125,0,0,1.21428571429,4,4")
P5 = "--phi1 0.5 --phi2 0.5"
AB = P5 + " --s1 4 --s2 4 --out sk.snap"
TEN_AB = b"a\tb\n" * 10
SKIP_ONE = b"warning: skipped 1 malformed line(s)\n"
SKIP_TWO = b"warning: skipped 2 malformed line(s)\n"
INFEASIBLE = (b"warning: table sizes do not meet the feasibility constraints; "
              b"reports may miss guarantees\n")
PIPE = (b"chh: error: pass 1 read 2 tuples but pass 2 read 0; the input must read the same "
        b"on every pass, so it cannot be a pipe or a FIFO\n")
NO_TAB = b"chh: error: line 2: no tab separator\n"
GOLDEN = "--phi1 0.1 --phi2 0.2"
GOLDEN_SNAPSHOT = "sha256:70a716a52de712641d56bb6aff73086e40520075c5a893cb6b1f7f3437375aba"
THREE_AB_SNAPSHOT = "sha256:80288c778eb33baeac90b589f4a925df6db254a38cf2695953dc809f653f3828"


def unwritable_out(command, out, error):
    # Both commands warn about the malformed line only once they have read it.
    sizes = "--s1 1 --s2 1" if command == "build" else "--s1-list 1 --s2-list 1"
    return Case(f"unwritable_out_exits_two_before_reading_input[{command}-{out}]",
                {"dir/": None, "stream.tsv": b"a\tb\nbroken\n"},
                [Step(f"{command} --in stream.tsv {P5} {sizes} --out {out}",
                      code=2, stderr=b"chh: error: --out " + error + b"\n")])


def strict_vs_lenient(via):
    data = b"a\tb\nbroken\na\tb\n"
    build = "build --in stream.tsv " + AB if via == "file" else "build " + AB
    return Case(f"malformed_lines_strict_vs_lenient[{via}]", {"stream.tsv": data}, [
        Step(build + " --strict", stdin=data, code=2, stderr=NO_TAB, files={"sk.snap": None}),
        Step(build, stdin=data, stderr=SKIP_ONE + INFEASIBLE),
        Step("report --sketch sk.snap", b"a 2\na b 2\n")])


CASES = [
    Case("solve_params_output_line", {}, [Step(
        "solve-params --phi1 0.1 --phi2 0.1 --eps1 0.05 --eps2 0.1", b"s1=440 s2=20 case=I\n")]),
    Case("solve_params_case_two", {}, [Step(
        "solve-params --phi1 0.5 --phi2 0.5 --eps1 0.01 --eps2 0.25", b"s1=100 s2=5 case=II\n")]),
    Case("build_and_report_flow", {"stream.tsv": TEN_AB}, [
        Step("build --in stream.tsv " + AB, stderr=INFEASIBLE),
        Step("report --sketch sk.snap", b"a 10\na b 10\n")]),
    Case("report_csv_format", {"stream.tsv": TEN_AB}, [
        Step("build --in stream.tsv " + AB, stderr=INFEASIBLE),
        Step("report --sketch sk.snap --format csv",
             b"kind,d,s,est_count\nprimary,a,,10\npair,a,b,10\n")]),
    Case("build_from_stdin", {}, [
        Step("build " + AB, stdin=TEN_AB, stderr=INFEASIBLE),
        Step("report --sketch sk.snap", b"a 10\na b 10\n")]),
    # Solver sizes always satisfy the constraints, so no warning.
    Case("build_solver_mode_with_default_tolerances", {"stream.tsv": b"a\tb\n" * 4}, [
        Step("build --in stream.tsv --phi1 0.2 --phi2 0.2 --out sk.snap")]),
    Case("exact_output", {"stream.tsv": b"a\tb\n" * 3 + b"c\td\n"}, [
        Step(f"exact --in stream.tsv {P5}", b"(a,b) 3\n")]),
    # The text form prints both pairs the same way; CSV quotes the commas.
    Case("exact_csv_format_keeps_keys_with_commas_apart", {"stream.tsv": b"a,b\tc\na\tb,c\n" * 2}, [
        Step("exact --in stream.tsv --phi1 0.4 --phi2 0.5", b"(a,b,c) 2\n" * 2),
        Step("exact --in stream.tsv --phi1 0.4 --phi2 0.5 --format csv",
             b'd,s,count\na,"b,c",2\n"a,b",c,2\n')]),
    Case("multipass_commands_exit_2_on_a_pipe[exact]", {}, [
        Step(f"exact --in /dev/stdin {P3}", stdin=b"a\tx\na\tx\n", code=2, stderr=PIPE)]),
    Case("multipass_commands_exit_2_on_a_pipe[evaluate]", {}, [
        Step(f"evaluate --in /dev/stdin {P3} --s1-list 4 --s2-list 4 --out sweep.csv",
             stdin=b"a\tx\na\tx\n", code=2, stderr=PIPE, files={"sweep.csv": None})]),
    # (8, 2) sheds nothing, so every row is read off it and no later pass runs.
    Case("evaluate_reads_a_pipe_when_no_later_pass_runs", {"stream.tsv": FLAT}, [
        Step(f"evaluate --in stream.tsv {P3} --s1-list 4,8 --s2-list 1,2 --out file.csv",
             files={"file.csv": FLAT_SWEEP}),
        Step(f"evaluate --in /dev/stdin {P3} --s1-list 4,8 --s2-list 1,2 --out pipe.csv",
             stdin=FLAT, files={"pipe.csv": FLAT_SWEEP})]),
    Case("exact_reads_a_pipe_when_no_primary_is_a_candidate", {}, [
        Step(f"exact --in /dev/stdin {P3}", stdin=FLAT)]),
    Case("evaluate_writes_csv", {"stream.tsv": b"a\tb\n" * 30 + b"c\td\n" * 10}, [
        Step(f"evaluate --in stream.tsv {P5} --s1-list 2,4 --s2-list 2 --out sweep.csv",
             files={"sweep.csv": sweep(b"2,2,40,0,0,0.5,0,0,2.5,2,2",
                                       b"4,2,40,0,0,0.25,0,0,1.5,2,2")})]),
    *(unwritable_out(command, out, error) for command in ("build", "evaluate") for out, error in (
        ("dir", b"dir is a directory"),
        ("missing/out", b"missing/out: directory missing does not exist"))),
    Case("failed_build_leaves_an_existing_snapshot_as_it_was", {"stream.tsv": b"a\tb\n" * 3}, [
        Step(f"build --in stream.tsv {AB} --strict", stderr=INFEASIBLE,
             files={"sk.snap": THREE_AB_SNAPSHOT}),
        Step(f"build --in stream.tsv {AB} --strict", writes={"stream.tsv": b"c\td\nbroken\n"},
             code=2, stderr=NO_TAB, files={"sk.snap": THREE_AB_SNAPSHOT})]),
    # One tuple cannot leave an empty inner table: its pair has lost no unit.
    Case("report_exits_two_on_a_snapshot_no_stream_reaches", {"bad.snap": (
        b"chh-sketch v1\nphi1 1/2\nphi2 1/2\neps1 1/4\neps2 7/1\ns1 1\ns2 1\nn 1\n"
        b"primaries 1\np 61 1 1 0\nend\n")}, [
        Step("report --sketch bad.snap", code=2,
             stderr=b"chh: error: entry for key b'a' violates sketch invariants\n")]),
    strict_vs_lenient("file"),
    strict_vs_lenient("stdin"),
    Case("exact_warns_on_malformed_lines",
         {"clean.tsv": b"a\tb\na\tb\nc\td\n", "broken.tsv": b"a\tb\nbroken\na\tb\nc\td\n"}, [
        Step(f"exact --in clean.tsv {P5}", b"(a,b) 2\n"),
        Step(f"exact --in broken.tsv {P5}", b"(a,b) 2\n", SKIP_ONE)]),
    Case("golden_outputs_on_quirky_lines", {"golden.tsv": golden_tsv()}, [
        Step(f"build --in golden.tsv {GOLDEN} --s1 6 --s2 3 --out file.snap",
             stderr=SKIP_TWO + INFEASIBLE, files={"file.snap": GOLDEN_SNAPSHOT}),
        Step(f"build {GOLDEN} --s1 6 --s2 3 --out stdin.snap", stdin=golden_tsv(),
             stderr=SKIP_TWO + INFEASIBLE, files={"stdin.snap": GOLDEN_SNAPSHOT}),
        Step("report --sketch file.snap",
             b"a 61\na p 21\na p\rq 40\na\r 1\na\r p\r 1\nc 22\nc x\ty 22\n"
             b"k4 1\nk4 v0 1\n\xff\xfe 21\n\xff\xfe \x80 21\n"),
        Step("report --sketch file.snap --format csv",
             b"kind,d,s,est_count\nprimary,a,,61\npair,a,p,21\npair,a,\"p\rq\",40\n"
             b"primary,\"a\r\",,1\npair,\"a\r\",\"p\r\",1\nprimary,c,,22\npair,c,x\ty,22\n"
             b"primary,k4,,1\npair,k4,v0,1\nprimary,\xff\xfe,,21\npair,\xff\xfe,\x80,21\n"),
        Step(f"exact --in golden.tsv {GOLDEN}",
             b"(a,p) 40\n(a,p\rq) 40\n(c,x\ty) 41\n(\xff\xfe,\x80) 40\n", SKIP_TWO),
        Step(f"evaluate --in golden.tsv {GOLDEN} --s1-list 4,8 --s2-list 2,3 --out sweep.csv",
             stderr=SKIP_TWO, files={"sweep.csv": (
                 "sha256:735ef119d118b94013420a6573949b5bb9a7eb83f0e8218ddfb40a42add26a61")})]),
    Case("report_and_exact_on_three_tuples", {"in.tsv": THREE}, [
        Step(f"build --in in.tsv {P3} --s1 4 --s2 4 --out sketch.snap", stderr=INFEASIBLE),
        Step("report --sketch sketch.snap", b"a 2\na x 1\na y 1\nb 1\nb x 1\n"),
        Step(f"exact --in in.tsv {P3}", b"(a,x) 1\n(a,y) 1\n(b,x) 1\n")]),
    # The first grid is read off its largest sketch, the second feeds (4, *)
    # in a later pass, and the third is below the candidate bound.
    Case("evaluate_grids_on_three_tuples", {"in.tsv": THREE}, [
        Step(f"evaluate --in in.tsv {P3} --s1-list 2,4 --s2-list 2 --out sweep.csv",
             files={"sweep.csv": sweep(b"2,2,3,0,0,0.5,0,0,3.83333333333,2,3",
                                       b"4,2,3,0,0,0.25,0,0,2.16666666667,2,3")}),
        Step(f"evaluate --in in.tsv {P3} --s1-list 4,8 --s2-list 2,4 --out sweep.csv",
             files={"sweep.csv": sweep(b"4,2,3,0,0,0.25,0,0,2.16666666667,2,3",
                                       b"4,4,3,0,0,0.25,0,0,1.91666666667,2,3",
                                       b"8,2,3,0,0,0.125,0,0,1.21428571429,2,3",
                                       b"8,4,3,0,0,0.125,0,0,0.964285714286,2,3")}),
        Step(f"evaluate --in in.tsv {P3} --s1-list 1,2 --s2-list 1,2 --out sweep.csv",
             files={"sweep.csv": sweep(
                 b"1,1,3,0.333333333333,0.333333333333,1,1,0.666666666667,7.66666666667,1,0",
                 b"1,2,3,0.333333333333,0.333333333333,1,1,0.5,7.16666666667,1,1",
                 b"2,1,3,0,0,0.5,0.5,0.333333333333,4.33333333333,2,1",
                 b"2,2,3,0,0,0.5,0,0,3.83333333333,2,3")})]),
    Case("quirky_lines_report_and_exact", {"quirks.tsv": b"a\tx\r\na\tx\ty\nbroken\na\tx\nb\tz"}, [
        Step(f"build --in quirks.tsv {P3} --s1 4 --s2 4 --out quirks.snap",
             stderr=SKIP_ONE + INFEASIBLE),
        Step("report --sketch quirks.snap", b"a 3\na x 2\na x\ty 1\nb 1\nb z 1\n"),
        Step(f"exact --in quirks.tsv {P3}", b"(a,x) 2\n(a,x\ty) 1\n", SKIP_ONE)]),
]


def run_case(case, directory):
    """Run ``case`` in ``directory`` and return one line per mismatch."""
    root = Path(directory)
    env = dict(os.environ)
    if "PYTHONPATH" in env:  # a relative entry such as src would not resolve from root
        entries = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, entries))
    for name, data in case.inputs.items():
        if name.endswith("/"):
            (root / name).mkdir()
        else:
            (root / name).write_bytes(data)
    mismatches = []
    for number, step in enumerate(case.steps, 1):
        for name, data in step.writes.items():
            (root / name).write_bytes(data)
        result = subprocess.run([sys.executable, "-m", "chh", *step.argv.split()],
                                cwd=root, input=step.stdin, capture_output=True, env=env)
        want = {"exit code": step.code, "stdout": step.stdout, "stderr": step.stderr, **step.files}
        got = {"exit code": result.returncode, "stdout": result.stdout, "stderr": result.stderr}
        for name, expected in step.files.items():
            got[name] = (root / name).read_bytes() if (root / name).exists() else None
            if isinstance(expected, str) and got[name] is not None:
                got[name] = "sha256:" + hashlib.sha256(got[name]).hexdigest()
        mismatches += [f"{case.name} step {number} (chh {step.argv}): {key} is {got[key]!r}, "
                       f"expected {value!r}" for key, value in want.items() if got[key] != value]
    return mismatches


def main(cases=CASES):
    """Run every case, print each mismatch, and return 1 if there is any."""
    failed = 0
    for case in cases:
        if case.skip_reason:
            print(f"skipped {case.name}: {case.skip_reason}")
            continue
        with tempfile.TemporaryDirectory() as directory:
            mismatches = run_case(case, directory)
        print("".join(line + "\n" for line in mismatches), end="")
        failed += bool(mismatches)
    print(f"{failed} of {len(cases)} CLI cases failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
