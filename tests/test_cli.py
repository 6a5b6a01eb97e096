import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from recomp import parse, decompose, total_order
from recomp.cli import MAX_TIMEOUT, main
from recomp.corpus import tpcounter, twophase
from spec_helpers import pretty

REPO = Path(__file__).parent.parent


def _fields(out):
    """The `key: value` lines of a structured report."""
    return dict(line.split(": ", 1) for line in out.splitlines())


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(REPO / "src")
                + (os.pathsep + path if path else ""))


@pytest.fixture(scope="module")
def tp_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "twophase.spec"
    path.write_text(pretty(parse(twophase(3))))
    return str(path)


@pytest.fixture(scope="module")
def counter_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "tpcounter.spec"
    path.write_text(pretty(parse(tpcounter(3))))
    return str(path)


def test_holds_exits_zero(tp_file, capsys):
    code = main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "s2"])
    assert code == 0
    assert "verdict: holds" in capsys.readouterr().out


def test_violation_exits_one_and_prints_counterexample(tp_file, capsys):
    code = main(["check", tp_file, "--property", "NoPrepares",
                 "--strategy", "s4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict: violated" in out
    assert "counterexample" in out
    assert 'SndPrepare("rm1")' in out


@pytest.mark.parametrize("strategy", ["s1", "s2", "s4"])
def test_violation_in_the_initial_state_prints_a_counterexample(
        tmp_path, strategy, capsys):
    corpus = Path(__file__).parent.parent / "corpus"
    path = tmp_path / "busy.spec"
    path.write_text((corpus / "lockserv3.spec").read_text()
                    + '\nPROPERTY Busy server = "held"\n')
    code = main(["check", str(path), "--property", "Busy",
                 "--strategy", strategy])
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict: violated" in out
    assert "counterexample: the initial state violates the property" in out


def test_inconclusive_exits_two(counter_file, capsys):
    code = main(["check", counter_file, "--property", "Consistent",
                 "--strategy", "s4", "--bound", "20000"])
    assert code == 2
    assert "bound-exceeded" in capsys.readouterr().out


def test_usage_errors_exit_three(tp_file, capsys):
    assert main(["check", "/no/such/file", "--property", "X"]) == 3
    assert main(["check", tp_file, "--property", "Missing"]) == 3
    assert main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "s9"]) == 3
    assert main(["check", tp_file, "--property", "Consistent",
                 "--bound", "0"]) == 3
    assert main(["frobnicate"]) == 3


@pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "1e9"])
def test_timeout_out_of_range_exits_three(tp_file, timeout, capsys):
    assert main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "s4", "--timeout", timeout]) == 3
    assert "timeout" in capsys.readouterr().err


def test_longest_timeout_is_accepted(tp_file, capsys):
    assert main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "s4", "--timeout", str(MAX_TIMEOUT)]) == 0


def test_structured_report_round_trips(tp_file, capsys):
    code = main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "s1", "--format", "structured"])
    assert code == 0
    fields = _fields(capsys.readouterr().out)
    assert fields["verdict"] == "holds"
    assert fields["strategy"] == "S1"
    assert fields["n"] == "4"


def test_portfolio_is_the_default(counter_file, capsys):
    # the reduced strategies finish; the monolithic one alone would not
    code = main(["check", counter_file, "--property", "Consistent",
                 "--timeout", "60"])
    assert code == 0


def test_no_process_outlives_the_cli(counter_file):
    """A portfolio check in its own session leaves no process behind: the
    pool's workers stop when the program exits."""
    proc = subprocess.Popen(
        [sys.executable, "-c", "from recomp.cli import entry; entry()",
         "check", counter_file, "--property", "Consistent",
         "--strategy", "portfolio", "--timeout", "60"],
        env=_env(), stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0
    assert "verdict: holds" in out
    with pytest.raises(ProcessLookupError):  # its group is empty
        os.killpg(proc.pid, 0)


def test_map_strategy(tp_file, tmp_path, capsys):
    spec = parse(twophase(3))
    comps = decompose(spec, spec.property("Consistent"))
    perm = total_order(comps, spec)
    ordered = [comps[i - 1] for i in perm]
    lines = ["%s = P" % ordered[0].name,
             "%s = 1" % ordered[1].name,
             "%s = 2" % ordered[2].name,
             "%s = 1" % ordered[3].name]
    mapfile = tmp_path / "layout.map"
    mapfile.write_text("\n".join(lines) + "\n")
    code = main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "map:%s" % mapfile, "--format", "structured"])
    assert code == 0
    fields = _fields(capsys.readouterr().out)
    assert fields["verdict"] == "holds"
    assert fields["m"] == "2"
    assert fields["k"] == "2"  # both groups are needed at this size


def test_map_naming_a_component_twice_exits_three(tp_file, tmp_path,
                                                   capsys):
    spec = parse(twophase(3))
    comps = decompose(spec, spec.property("Consistent"))
    ordered = [comps[i - 1] for i in total_order(comps, spec)]
    lines = ["%s = P" % ordered[0].name,
             "%s = P" % ordered[1].name,
             "%s = 2" % ordered[1].name,
             "%s = 1" % ordered[2].name,
             "%s = 1" % ordered[3].name]
    mapfile = tmp_path / "twice.map"
    mapfile.write_text("\n".join(lines) + "\n")
    code = main(["check", tp_file, "--property", "Consistent",
                 "--strategy", "map:%s" % mapfile])
    assert code == 3
    err = capsys.readouterr().err
    assert "map line 3" in err and ordered[1].name in err


@pytest.mark.parametrize("module", ["recomp", "recomp.cli"])
def test_python_m_runs_the_check(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "check",
         str(REPO / "corpus" / "twophase3.spec"), "--property", "NoPrepares",
         "--strategy", "s4"],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "verdict: violated" in proc.stdout
    assert "counterexample:" in proc.stdout


def test_a_spec_leaving_a_variable_unconstrained_exits_three(tmp_path,
                                                              capsys):
    path = tmp_path / "loose.spec"
    path.write_text("MODULE M\n\nVARIABLES x, y\n\nINIT\n  /\\ x = 0\n"
                    "  /\\ y = 0\n\nACTION Step(d)\n  /\\ x' = 1\n\n"
                    "NEXT \\E d \\in {\"a\"} :\n  \\/ Step(d)\n\n"
                    "PROPERTY Zero\n  y = 0\n")
    assert main(["check", str(path), "--property", "Zero"]) == 3
    assert "Step leaves y unconstrained" in capsys.readouterr().err


def test_decompose_subcommand(tp_file, capsys):
    assert main(["decompose", tp_file, "--property", "Consistent"]) == 0
    out = capsys.readouterr().out
    assert "components: 4" in out
    assert "rmState" in out


def test_order_subcommand(tp_file, capsys):
    assert main(["order", tp_file, "--property", "Consistent"]) == 0
    out = capsys.readouterr().out
    assert "E0:" in out
    assert "total order:" in out
    assert "map S1:" in out
    assert "map S4:" in out
