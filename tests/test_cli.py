import ast
import copy
import importlib
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

try:
    import fcntl
except ImportError:  # not a POSIX system
    fcntl = None

import stylic
from stylic import cli, verify
from stylic.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_n_tableau(capsys):
    code, out, _ = run(capsys, "compute", "N", "cabd", "-n", "4")
    assert code == 0
    assert out.splitlines() == ["c", "a b c d"]


def test_compute_p_empty(capsys):
    code, out, _ = run(capsys, "compute", "P", "", "-n", "3")
    assert code == 0
    assert "empty tableau" in out


def test_compute_theta(capsys):
    code, out, _ = run(capsys, "compute", "theta", "acdaadc", "-n", "4")
    assert code == 0
    assert out.strip() == "baddabd"


def test_compute_pi(capsys):
    code, out, _ = run(capsys, "compute", "pi", "cabd", "-n", "4")
    assert code == 0
    assert out.strip() == "abd/c"


def test_compute_delta_partition(capsys):
    code, out, _ = run(capsys, "compute", "delta", "13/28/457/6", "-n", "8")
    assert code == 0
    assert out.strip() == "23/48/57/6"


def test_compute_evac_prints_delta_chain(capsys):
    code, out, _ = run(capsys, "compute", "evac", "13/28/457/6", "-n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("13/28/457/6")
    assert lines[1].endswith("23/48/57/6")
    assert lines[-1].startswith("evac:")


def test_compute_jdt(capsys):
    skew = {
        "outer": [4, 3, 3, 1],
        "inner": [2, 1],
        "labels": [
            [[3, 1], "b"], [[4, 1], "f"], [[2, 2], "d"], [[3, 2], "e"],
            [[1, 3], "a"], [[2, 3], "c"], [[3, 3], "h"], [[1, 4], "g"],
        ],
    }
    code, out, _ = run(capsys, "compute", "jdt", json.dumps(skew), "-n", "8")
    assert code == 0
    assert out.strip() == "abf/cde/gh"


def test_compute_json_round_trip(capsys):
    code, out, _ = run(capsys, "compute", "N", "cabd", "-n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"rows": [["a", "b", "c", "d"], ["c"]]}
    code, out, _ = run(capsys, "compute", "pi", "cabd", "-n", "4", "--json")
    assert code == 0
    assert json.loads(out) == [["a", "b", "d"], ["c"]]


def test_enumerate_monoid(capsys):
    code, out, _ = run(capsys, "enumerate", "monoid", "-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("15 elements")
    assert len(lines) == 16


def test_enumerate_monoid_json(capsys):
    code, out, _ = run(capsys, "enumerate", "monoid", "-n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 5
    assert len(data["table"]) == 5
    # table really is the multiplication table: identity row is the index map
    assert data["table"][data["identity"]] == list(range(5))
    coranks = {e["corank"] for e in data["elements"]}
    assert coranks == {0, 1, 2, 3}


def test_enumerate_monoid_json_is_streamed_json_dumps(capsys):
    from stylic.core import Alphabet
    from stylic.monoid import enumerate_styl

    code, out, err = run(capsys, "enumerate", "monoid", "-n", "3", "--json")
    assert code == 0 and err == ""
    assert out == json.dumps(enumerate_styl(Alphabet(3)).to_json()) + "\n"


def test_enumerate_n7_reports_size_and_peak_memory(capsys):
    code, out, err = run(capsys, "enumerate", "jorder", "-n", "7", "--force")
    assert code == 0
    assert out.startswith("graded order on 4140 elements, height 28")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("note: n = 7: 4140 elements, peak RSS ")
    assert lines[0].endswith(" MiB") and "table" not in lines[0]


def test_every_n_above_the_default_cap_reports_peak_memory(capsys, monkeypatch):
    # With the ceiling raised to 8, n = 7 is no longer the ceiling.
    monkeypatch.setattr("stylic.monoid.ENUMERATION_CEILING", 8)
    code, out, err = run(capsys, "enumerate", "jorder", "-n", "7", "--force")
    assert code == 0 and out.startswith("graded order on 4140 elements, height 28")
    assert err.startswith("note: n = 7: 4140 elements, peak RSS ") and err.count("\n") == 1


# Touches 120 MB, frees it, then runs a command and prints its stderr.
BALLAST_LAUNCHER = """
import resource, subprocess, sys
ballast = b"x" * (120 << 20)
del ballast
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak * (1 if sys.platform == "darwin" else 1024))
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
"""


def test_peak_memory_note_is_the_commands_own():
    # On Linux ru_maxrss carries over the launcher's high-water mark.
    src = str(Path(stylic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-m", "stylic.cli", "enumerate", "jorder", "-n", "7", "--force"]
    done = subprocess.run(
        [sys.executable, "-c", BALLAST_LAUNCHER, *command],
        capture_output=True, text=True, env=env, check=True,
    )
    assert int(done.stdout) > 100e6
    note = done.stderr.strip()
    assert note.startswith("note: n = 7: 4140 elements, peak RSS ") and note.endswith(" MiB")
    assert float(note.split()[-2]) < 60


def test_partition_renderings_round_trip():
    # Every partition of every set of one to three letters from 1..12: a
    # letter above 9 is written as a letter, since "3/12" reads as {3}/{1,2}.
    from itertools import combinations

    from stylic.monoid import all_set_partitions, parse_partition, pi
    from stylic.core import parse_word

    r = pi(parse_word("cabd"))
    cases = [r] + [
        partition
        for k in range(1, 4)
        for letters in combinations(range(1, 13), k)
        for partition in all_set_partitions(letters)
    ]
    assert len(cases) == 1 + 1244
    for partition in cases:
        assert parse_partition(partition.render()) == partition
        assert parse_partition(partition.render(digits=True)) == partition


def test_enumerate_idempotents(capsys):
    code, out, _ = run(capsys, "enumerate", "idempotents", "-n", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("4 idempotents")


def test_enumerate_jorder_dot(capsys):
    code, out, _ = run(capsys, "enumerate", "jorder", "-n", "3", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label=") == 15


def test_enumerate_jorder_text(capsys):
    code, out, _ = run(capsys, "enumerate", "jorder", "-n", "2")
    assert code == 0
    assert "graded order on 5 elements, height 3" in out


def test_verify_all_smallest(capsys):
    code, out, _ = run(capsys, "verify", "all", "-n", "1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_evacuation(capsys):
    code, out, _ = run(capsys, "verify", "evacuation", "-n", "3", "--maxlen", "6")
    assert code == 0
    assert "[evacuation] pass" in out


def test_verify_confluence(capsys):
    code, out, _ = run(capsys, "verify", "confluence", "-n", "3")
    assert code == 0
    assert "343" in out


def test_maxlen_does_not_bound_the_confluence_suite(capsys):
    # The --maxlen help names the checks it bounds; confluence is not one.
    outputs = [run(capsys, "verify", "confluence", "-n", "3", "--maxlen", m) for m in ("1", "8")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_maxlen_does_not_bound_the_presentation_suite(capsys):
    # The descent certifies every rule at its own length, with no word cap.
    outputs = [run(capsys, "verify", "presentation", "-n", "4", "--maxlen", m) for m in ("1", "8")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "len<=" not in outputs[0][1]


def count_builds(monkeypatch):
    """Patch the builder that `verify` enumerates through; return the list
    of (monoid, copy of its Cayley graphs when built) that it fills."""
    build = verify.enumerate_styl
    built = []

    def counted(alphabet):
        monoid = build(alphabet)
        graphs = (monoid.right_by_letter, monoid.left_by_letter)
        built.append((monoid, copy.deepcopy(graphs)))
        return monoid

    monkeypatch.setattr(verify, "enumerate_styl", counted)
    return built


def test_verify_all_enumerates_each_alphabet_size_once(monkeypatch, capsys):
    built = count_builds(monkeypatch)
    assert main(["verify", "all", "-n", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert [m.alphabet.n for m, _ in built] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "suite, sizes",
    [
        ("all", [1, 2, 3, 4]),
        ("bijection", [1, 2, 3, 4]),
        ("presentation", [1, 2, 3, 4]),
        ("evacuation", [4]),
        ("graded", [4]),
        ("syntactic", [4]),
        ("confluence", []),
    ],
)
def test_a_run_enumerates_what_its_suites_read_and_leaves_it_unchanged(monkeypatch, suite, sizes):
    built = count_builds(monkeypatch)
    results = verify.run_suite(suite, 4)
    assert all(result.ok for result in results)
    assert [m.alphabet.n for m, _ in built] == sizes
    for monoid, graphs in built:
        assert (monoid.right_by_letter, monoid.left_by_letter) == graphs


def test_verify_all_at_n7_builds_seven_monoids_and_hands_them_to_every_suite(monkeypatch, capsys):
    # The suites are stubbed to record what they are handed; the n = 5 test
    # above runs the real ones, which enumerate nothing themselves.
    built = count_builds(monkeypatch)
    handed = {}
    for name in verify.SUITES:
        def suite(first, *rest, name=name):
            handed[name] = first
            return verify.SuiteResult(name)

        monkeypatch.setattr(verify, f"verify_{name}", suite)
    assert main(["verify", "all", "-n", "7", "--force"]) == 0
    monoids = [m for m, _ in built]
    assert [m.alphabet.n for m in monoids] == list(range(1, 8))
    assert handed["bijection"] == handed["presentation"] == monoids
    assert all(handed[name] is monoids[-1] for name in ("evacuation", "graded", "syntactic"))
    assert handed["confluence"] == 7


def test_every_suite_keeps_the_name_the_benchmark_traces():
    # perfbench/worker.py times each suite as verify.verify_<name>, and its
    # tracer refuses a generator.
    for name in verify.SUITES:
        function = getattr(verify, f"verify_{name}", None)
        assert callable(function), name
        assert not inspect.isgeneratorfunction(function), name


def test_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "P", "a$b", "-n", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "compute", "P", "abcd", "-n", "3")
    assert code == 2  # letter outside the alphabet
    code, _, err = run(capsys, "enumerate", "monoid", "-n", "9")
    assert code == 2 and "ceiling" in err
    assert run(capsys, "verify", "all", "-n", "7") == (
        2, "", "error: n = 7 exceeds the ceiling 6 of verify (use --force for 7)\n"
    )
    code, _, err = run(capsys, "compute", "jdt", "{bad json", "-n", "3")
    assert code == 2


def test_enumerate_jorder_reports_the_walks_first_fault(monkeypatch, capsys):
    # The zero times a is the identity: one step that adds no boxes.
    from stylic import monoid

    build = monoid.enumerate_styl

    def corrupted(alphabet):
        built = build(alphabet)
        built.right_by_letter[1][built.zero] = built.identity
        return built

    monkeypatch.setattr(monoid, "enumerate_styl", corrupted)
    assert run(capsys, "enumerate", "jorder", "-n", "3") == (
        2, "", "error: a on the right takes 'cba' to '1', 6 -> 0 boxes\n"
    )


def test_the_readme_cli_examples_run(capsys):
    # The `styl` lines of the first code block under the README's CLI heading.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("styl ")
    ]
    assert len(commands) == 14
    for args in commands:
        code, out, _ = run(capsys, *args)
        assert code == 0, args
        assert "FAIL" not in out, args


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        "{}",
        '{"outer":"x"}',
        '{"outer":"x","labels":[]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1]]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],"ab"]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],"a"]],"hole":[1]}',
        '{"outer":[2],"labels":[[[1,1],"a"]],"hole":[2,1]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],true]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],null]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],1.5]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],[2]]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],0]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],-2]]}',
        '{"outer":[2],"inner":[1],"labels":[[[2,1],4]]}',
    ],
)
def test_malformed_jdt_json_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "compute", "jdt", text, "-n", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, line",
    [
        (
            '{"outer":[2],"inner":[1],"labels":[[[2,1],null]]}',
            "error: label null is not a positive integer or a string",
        ),
        (
            '{"outer":[2],"inner":[1],"labels":[[[2,1],true]]}',
            "error: label true is not a positive integer or a string",
        ),
        (
            '{"outer":[2,null],"inner":[1],"labels":[[[2,1],1]]}',
            "error: outer must be a list of integers, got [2, null]",
        ),
        (
            '{"outer":[2],"inner":[1],"labels":[[[2,true],1]]}',
            "error: a label point must be a list of 2 integers, got [2, true]",
        ),
    ],
)
def test_malformed_jdt_json_is_quoted_as_json(capsys, text, line):
    assert run(capsys, "compute", "jdt", text, "-n", "3") == (2, "", line + "\n")


def test_integer_jdt_labels_are_letters(capsys):
    skew = '{"outer":[2],"inner":[1],"labels":[[[2,1],10]]}'
    code, out, err = run(capsys, "compute", "jdt", skew, "-n", "12")
    assert (code, out, err) == (0, "j\n", "")
    skew = '{"outer":[2],"inner":[1],"labels":[[[2,1],2]]}'
    assert run(capsys, "compute", "jdt", skew, "-n", "2") == (0, "2\n", "")


def test_string_jdt_labels_are_one_letter(capsys):
    skew = '{"outer":[3],"inner":[2],"labels":[[[3,1],"10"]]}'
    assert run(capsys, "compute", "jdt", skew, "-n", "12") == (0, "j\n", "")
    skew = '{"outer":[3],"inner":[2],"labels":[[[3,1],"j"]]}'
    assert run(capsys, "compute", "jdt", skew, "-n", "12") == (0, "j\n", "")


@pytest.mark.parametrize(
    "text",
    [
        "[" * 50000,
        '{"outer":[100000000],"inner":[99999999],"labels":[[[100000000,1],"b"]]}',
        '{"outer":[100000000],"labels":[]}',
        '{"outer":[3],"labels":[]}',
    ],
)
def test_jdt_input_beyond_its_bounds_is_a_quick_usage_error(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "jdt", text, "-n", "3")
    assert time.perf_counter() - start < 0.2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ("monoid", "-n", "2", "--dot"),
        ("idempotents", "-n", "2", "--dot"),
        ("jorder", "-n", "2", "--dot", "--json"),
    ],
)
def test_dot_draws_only_the_jorder_diagram(capsys, args):
    code, out, err = run(capsys, "enumerate", *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["AB", "1.2/x"])
def test_non_letter_partitions_are_usage_errors(capsys, text):
    code, _, err = run(capsys, "compute", "delta", text, "-n", "3")
    assert code == 2
    assert err.startswith("error: ") and "is not a letter" in err


@pytest.mark.parametrize("kind", ["delta", "evac"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("1.10000000000", "letter 10000000000 outside alphabet of size 5"),
        ("2/10000000000.1", "letter 10000000000 outside alphabet of size 5"),
        ("1.1.10000000000", "partition blocks must be disjoint"),
        ("6/6", "partition blocks must be disjoint"),
    ],
)
def test_partition_letters_are_bounded_before_any_mask(capsys, kind, text, message):
    # A block mask is as wide as its largest letter.
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", kind, text, "-n", "5")
    assert time.perf_counter() - start < 0.2
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "kind, text, n",
    [("P", "1.+2. 3", "3"), ("N", "1.1_0", "10"), ("N", "1.-2", "3"), ("P", "１２", "3")],
)
def test_numeric_letters_are_ascii_digits(capsys, kind, text, n):
    code, out, err = run(capsys, "compute", kind, text, "-n", n)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ("bijection", "-n", "-2"),
        ("bijection", "-n", "0"),
        ("all", "-n", "0"),
        ("evacuation", "-n", "2", "--maxlen", "-1"),
        ("syntactic", "-n", "2", "--maxlen", "0"),
        ("confluence", "-n", "2", "--maxlen", "0"),
    ],
)
def test_verify_rejects_an_empty_check(capsys, args):
    code, out, err = run(capsys, "verify", *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Only sizes that would still finish quickly if the ceiling were missing.
@pytest.mark.parametrize(
    "args",
    [
        ("presentation", "-n", "2", "--maxlen", "9"),
        ("confluence", "-n", "1", "--maxlen", "12"),
        ("all", "-n", "1", "--maxlen", "9"),
    ],
)
def test_verify_rejects_maxlen_above_the_ceiling(capsys, args):
    code, out, err = run(capsys, "verify", *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ceiling 8" in err


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "Q", "abc", "-n", "3"])
    assert exc.value.code == 2


def styl_process(args, stdout, stderr=subprocess.PIPE):
    src = str(Path(stylic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen(
        [sys.executable, "-m", "stylic.cli", *args],
        stdout=stdout, stderr=stderr, text=True, env=env,
    )


def assert_one_output_error(proc):
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


def test_closed_stdout_is_an_output_error():
    # About 3 MB of JSON: more than a pipe holds even once `enumerate` has
    # widened it to 1 MiB, so writing must fail once the reader has gone.
    proc = styl_process(["enumerate", "monoid", "-n", "6", "--json"], subprocess.PIPE)
    assert proc.stdout.read(10) == '{"n": 6, "'
    proc.stdout.close()
    assert_one_output_error(proc)


def test_closed_stdout_and_stderr_on_one_pipe_is_an_output_error():
    # The error line cannot be written either; the exit code stays 2.  The
    # 3 MB export still overflows the widened 1 MiB pipe.
    proc = styl_process(
        ["enumerate", "monoid", "-n", "6", "--json"], subprocess.PIPE, subprocess.STDOUT
    )
    assert proc.stdout.read(10) == '{"n": 6, "'
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2


def test_closed_stderr_keeps_the_usage_error_code():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = styl_process(
            ["compute", "delta", "(empty)", "-n", "3"], subprocess.DEVNULL, write_end
        )
    finally:
        os.close(write_end)
    assert proc.wait(timeout=120) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_an_output_error():
    with open("/dev/full", "w") as full:
        proc = styl_process(["compute", "P", "dbbaac", "-n", "4"], full)
        assert_one_output_error(proc)


on_linux = pytest.mark.skipif(
    not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe sizes are set on Linux only"
)


class FdStream:
    """A stream that is only a file descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd


def a_pipe_may_hold(size):
    """Whether this process may ask for a `size`-byte pipe: not when the host
    has lowered pipe-max-size or the user has used up its pipe quota."""
    read_end, write_end = os.pipe()
    try:
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, size)
        return True
    except PermissionError:
        return False
    finally:
        os.close(read_end)
        os.close(write_end)


def skip_unless_a_pipe_may_hold(size):
    if not a_pipe_may_hold(size):
        pytest.skip(f"this process may not ask for a {size}-byte pipe")


@on_linux
def test_enumerate_widens_a_pipe_to_1_mib():
    skip_unless_a_pipe_may_hold(cli.PIPE_BYTES)
    read_end, write_end = os.pipe()
    try:
        assert fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) < cli.PIPE_BYTES
        cli._widen_pipe(FdStream(write_end))
        assert fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) >= cli.PIPE_BYTES
    finally:
        os.close(read_end)
        os.close(write_end)


@on_linux
@pytest.mark.parametrize("size", [1 << 20, 2 << 20])
def test_a_pipe_at_1_mib_or_more_keeps_its_size(size):
    skip_unless_a_pipe_may_hold(size)
    read_end, write_end = os.pipe()
    try:
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, size)
        cli._widen_pipe(FdStream(write_end))
        assert fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) == size
    finally:
        os.close(read_end)
        os.close(write_end)


def test_widening_leaves_files_and_closed_descriptors_as_they_are(tmp_path):
    path = tmp_path / "out.json"
    with open(path, "w") as file, open(os.devnull, "w") as devnull:
        file.write("{}")
        file.flush()
        for stream in (file, devnull):
            before = os.fstat(stream.fileno())
            cli._widen_pipe(stream)
            after = os.fstat(stream.fileno())
            assert (after.st_mode, after.st_size) == (before.st_mode, before.st_size)
            assert os.lseek(stream.fileno(), 0, os.SEEK_CUR) == before.st_size
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.close(write_end)
    cli._widen_pipe(FdStream(write_end))


class WriteOnlyStream:
    """A stdout that has only write and flush."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def getvalue(self):
        return "".join(self.parts)


class NoFilenoStream(WriteOnlyStream, io.TextIOBase):
    """A text stdout whose fileno() raises, like perfbench's Sink."""


@pytest.mark.parametrize("stream", [io.StringIO, NoFilenoStream, WriteOnlyStream])
def test_enumerate_into_a_stream_without_a_descriptor(monkeypatch, capsys, stream):
    args = ["enumerate", "monoid", "-n", "3", "--json"]
    expected = run(capsys, *args)
    out = stream()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(args) == 0
    assert expected == (0, out.getvalue(), "")


def test_only_enumerate_widens_stdout(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_widen_pipe", calls.append)
    for args in (["compute", "P", "dbbaac", "-n", "4"], ["verify", "graded", "-n", "2"]):
        assert run(capsys, *args)[0] == 0
    assert calls == []
    assert run(capsys, "enumerate", "jorder", "-n", "2")[0] == 0
    assert calls == [sys.stdout]


def test_enumerate_writes_the_same_bytes_to_a_pipe_a_file_and_a_capture(capsys, tmp_path):
    args = ["enumerate", "monoid", "-n", "4", "--json"]
    captured = run(capsys, *args)[1].encode()
    proc = styl_process(args, subprocess.PIPE, subprocess.DEVNULL)
    with proc.stdout:
        piped = proc.stdout.buffer.read()
        assert proc.wait(timeout=120) == 0
        if hasattr(fcntl, "F_SETPIPE_SZ") and a_pipe_may_hold(cli.PIPE_BYTES):
            assert fcntl.fcntl(proc.stdout.fileno(), fcntl.F_GETPIPE_SZ) >= cli.PIPE_BYTES
    with open(tmp_path / "out.json", "w") as file:
        assert styl_process(args, file, subprocess.DEVNULL).wait(timeout=120) == 0
    assert piped == (tmp_path / "out.json").read_bytes() == captured


def test_no_assert_in_the_package():
    # python -O strips assert statements, so no check in src/ may be one.
    package = Path(stylic.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_core_converts_letters_and_characters():
    # The letter text format is decided in core; no other module does
    # arithmetic on character codes.
    package = Path(stylic.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("ord", "chr")
    ]
    assert found == []


def defined_names(node):
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def named(node):
    """The name an expression node reads or binds, if any."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def definitions_nothing_uses(package):
    """The definitions in the package's modules that no other code in the
    package names: public top-level functions, classes and constants that
    `__init__` does not export (its `_EXPORTS` table maps each module to the
    names it exports), private top-level functions, and private methods.  A
    definition's own body is not a use of it."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    exported = {
        name.value
        for node in trees.pop("__init__").body
        if defined_names(node) == ["_EXPORTS"]
        for names in node.value.values
        for name in names.elts
    }
    definitions = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            for name in defined_names(node):
                if not name.startswith("_") or isinstance(node, ast.FunctionDef):
                    definitions.append((f"{module}.{name}", name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{module}.{node.name}.{method.name}", method.name, method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name.startswith("_")
                    and not method.name.endswith("__")
                ]
    uses = Counter(named(sub) for tree in trees.values() for sub in ast.walk(tree))
    return [
        qualified
        for qualified, name, node in definitions
        if name not in exported and uses[name] == sum(named(sub) == name for sub in ast.walk(node))
    ]


def test_every_public_definition_is_used_or_exported():
    # Oracles and test helpers live in tests/, not in the package.
    package = Path(stylic.__file__).resolve().parent
    unused = definitions_nothing_uses(package)
    assert [name for name in unused if not name.rsplit(".", 1)[1].startswith("_")] == []


def test_every_private_function_and_method_is_used():
    # A helper whose last caller went away is dead code, not an oracle.
    package = Path(stylic.__file__).resolve().parent
    unused = definitions_nothing_uses(package)
    assert [name for name in unused if name.rsplit(".", 1)[1].startswith("_")] == []


def fresh_python(code, *options):
    """Run `code` in a new interpreter that imports stylic from this tree."""
    src = str(Path(stylic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *options, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


OPTIMIZED_SCRIPT = """
from stylic import cli, evacuation, monoid, rewriting
from stylic.core import Alphabet

print("asserts", "on" if __debug__ else "off")
bell = monoid.bell_number
monoid.bell_number = lambda k: bell(k) + 1
try:
    monoid.enumerate_styl(Alphabet(3))
    print("enumerate passed")
except ValueError as exc:
    print("enumerate raised", exc)
monoid.bell_number = bell
m = monoid.enumerate_styl(Alphabet(3))
m.right_by_letter[1][m.zero] = m.identity
try:
    m.j_order()
    print("j_order passed")
except ValueError as exc:
    print("j_order raised", exc)
act_masks, rewriting.act_masks = rewriting.act_masks, lambda word, mask: 0
try:
    rewriting.column_pair_reduce(frozenset({1}), frozenset({1}))
    print("column_pair_reduce passed")
except ValueError as exc:
    print("column_pair_reduce raised", exc)
rewriting.act_masks = act_masks
b, c, a = 2, 4, 1
reduce, cycle = rewriting.reduce_masks, {(b, a): (c, a), (c, a): (b, a)}
rewriting.reduce_masks = lambda c1, c2: cycle.get((c1, c2)) or reduce(c1, c2)
report = rewriting.local_confluence_check(Alphabet(3))
print("confluence", "passed" if report.ok else "failed", report.measure_violations)
evacuation.evac_via_pyramid = lambda partition, alphabet: partition
print("evac exit", cli.main(["compute", "evac", "13/28/457/6", "-n", "8"]))
"""


def test_certifications_survive_optimized_mode():
    # python -O strips assert statements; a forced violation must still fail.
    proc = fresh_python(OPTIMIZED_SCRIPT, "-O")
    lines = proc.stdout.splitlines()
    assert lines[0] == "asserts off"
    assert lines[1].startswith("enumerate raised closure found 15 transformations")
    assert lines[2] == "j_order raised a on the right takes 'cba' to '1', 6 -> 0 boxes"
    assert lines[3].startswith("column_pair_reduce raised multiset leftover")
    assert lines[4] == "confluence failed ['(b)(a)']"
    assert lines[-1] == "evac exit 1"
    assert "evac disagrees" in proc.stderr


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'stylic')))"


def test_importing_the_cli_loads_no_other_module():
    loaded = fresh_python(f"import sys\nimport stylic.cli\n{LOADED}").stdout.split()
    assert loaded == ["stylic", "stylic.cli"]


def test_enumerate_loads_no_suite():
    code = (
        "import contextlib, io, sys\nfrom stylic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['enumerate', 'jorder', '-n', '3']) == 0\n"
        f"{LOADED}"
    )
    loaded = set(fresh_python(code).stdout.split())
    assert "stylic.monoid" in loaded
    assert not loaded & {"stylic.verify", "stylic.evacuation", "stylic.rewriting", "stylic.syntactic"}


def test_the_verify_choices_are_the_suites():
    from stylic import cli

    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_every_export_is_the_object_in_its_module():
    for module, names in stylic._EXPORTS.items():
        source = importlib.import_module(f"stylic.{module}")
        for name in names:
            assert getattr(stylic, name) is getattr(source, name), name
            assert vars(stylic)[name] is getattr(source, name), name  # kept after first use
    assert sorted(stylic.__all__) == sorted(n for names in stylic._EXPORTS.values() for n in names)
    assert len(stylic.__all__) == len(set(stylic.__all__)) == 57


def test_every_module_level_name_is_used_in_the_package_or_exported():
    # The package holds only the code it runs or exports: each module-level
    # def, class and constant is read somewhere in the package outside its
    # own definition, or is exported.
    trees = [ast.parse(path.read_text()) for path in Path(stylic.__file__).parent.glob("*.py")]
    defined, named = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                own = set()
            defined |= own
            for n in ast.walk(node):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name is not None and name not in own:
                    named.add(name)
    exported = set(stylic.__all__)
    unused = sorted(name for name in defined - named - exported if not name.startswith("__"))
    assert not unused
    # The names that only the exports keep.
    assert {"all_labelled_skews", "jdt_all_results", "parse_column"} <= defined - named


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        stylic.no_such_name


@pytest.mark.parametrize(
    "statement, check",
    [
        ("import stylic", "set(stylic.__all__) <= set(dir(stylic))"),
        ("from stylic import *", "all(name in globals() for name in sys.modules['stylic'].__all__)"),
        ("from stylic import verify", "callable(verify.run_suite)"),
        (
            "from stylic import cli, monoid, rewriting",
            "all(map(callable, (cli.main, monoid.pi, rewriting.knuth_relations)))",
        ),
    ],
    ids=["dir", "star", "verify", "submodules"],
)
def test_package_imports_work_in_a_fresh_interpreter(statement, check):
    # A fresh interpreter has loaded no module, so each statement meets the
    # lazy package as a script would.
    assert fresh_python(f"import sys\n{statement}\nprint({check})").stdout == "True\n"
