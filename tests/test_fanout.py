"""The fork-join of ``synth``: the same bytes as in one process, and
every failure in a child ends as it would in the parent, with the child
reaped."""

import os
import signal
import time

import pytest

import ecadd.pointaddsynth as pas
from ecadd import fanout, fieldsynth
from ecadd.cli import EXIT_INTERNAL, EXIT_OK, main
from ecadd.pointaddsynth import BoundViolation

IN_PROCESS = 10**12
TOY = ["synth", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
       "--x2", "0x2", "--y2", "0x5"]
# The DSS curve B-163 and its base point.
B163 = ["synth", "--poly", "1+x^3+x^6+x^7+x^163", "--a2", "0x1",
        "--a6", "0x20a601907b8c953ca1481eb10512f78744a3205fd",
        "--x2", "0x3f0eba16286a2d57ea0991168d4994637e8343e36",
        "--y2", "0xd51fbc6c71a0094fa2cdd545b11c5c0c797324f1"]


@pytest.fixture
def deadline():
    """Fail a test that runs past 60 s, a hung wait among them."""
    def expired(signum, frame):
        raise TimeoutError("the test ran past its deadline")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def assert_no_child_left():
    # Raises when this process has no child at all, reaped or not.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_synth(argv, limit, monkeypatch, capsys):
    """(exit code, stdout, stderr) of ``main(argv)`` with the fork
    threshold at ``limit`` and no CNOT order cached."""
    monkeypatch.setattr(fanout, "FANOUT_MIN_EDGES", limit)
    monkeypatch.setattr(fieldsynth, "_orders", {})
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestForkJoin:
    def test_results_in_order(self, deadline, monkeypatch):
        monkeypatch.setattr(fanout, "FANOUT_MIN_EDGES", 0)
        parent = os.getpid()
        assert fanout.fork_join(0, os.getpid, os.getpid)[1] == parent
        assert fanout.fork_join(0, os.getpid, os.getpid)[0] != parent
        assert_no_child_left()

    def test_below_threshold_runs_here_child_first(self, monkeypatch):
        monkeypatch.setattr(fanout, "FANOUT_MIN_EDGES", 10)
        calls = []
        assert fanout.fork_join(9, lambda: calls.append("child") or 1,
                                lambda: calls.append("parent") or 2) == (1, 2)
        assert calls == ["child", "parent"]

    def test_child_exception_raised_with_type_and_message(self, deadline,
                                                          monkeypatch):
        def child():
            raise BoundViolation("depth: achieved 9 vs bound 8")

        monkeypatch.setattr(fanout, "FANOUT_MIN_EDGES", 0)
        with pytest.raises(BoundViolation, match="^depth: achieved 9 vs bound 8$"):
            fanout.fork_join(0, child, lambda: None)
        assert_no_child_left()

    def test_parent_failure_kills_and_reaps_the_child(self, deadline,
                                                      monkeypatch):
        def parent():
            raise ValueError("parent failed")

        monkeypatch.setattr(fanout, "FANOUT_MIN_EDGES", 0)
        start = time.monotonic()
        with pytest.raises(ValueError, match="parent failed"):
            fanout.fork_join(0, lambda: time.sleep(50), parent)
        assert time.monotonic() - start < 10
        assert_no_child_left()


    def test_failed_fork_is_an_internal_error(self, tmp_path, monkeypatch,
                                              capsys):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(fanout.os, "fork", no_fork)
        code, _, err = run_synth(TOY + ["--out", str(tmp_path / "a.qc")], 0,
                                 monkeypatch, capsys)
        assert code == EXIT_INTERNAL
        assert err == ("internal error: cannot fork: "
                       "[Errno 11] Resource temporarily unavailable\n")
        assert list(tmp_path.iterdir()) == []


class TestSameBytes:
    def test_b163_synth_files(self, deadline, tmp_path, monkeypatch, capsys):
        files = {}
        for limit in (IN_PROCESS, 0):
            out = tmp_path / f"{limit}.qc"
            code, stdout, _ = run_synth(B163 + ["--out", str(out)], limit,
                                        monkeypatch, capsys)
            assert code == EXIT_OK
            assert stdout.startswith("wrote ")
            files[limit] = (out.read_bytes(),
                            out.with_suffix(".report.json").read_bytes())
        assert files[0] == files[IN_PROCESS]
        assert_no_child_left()


def only_in_child(fail, real):
    """A stand-in for ``real`` that calls ``fail()`` in a forked child
    and ``real`` in this process."""
    parent_pid = os.getpid()

    def stand_in(*args):
        if os.getpid() != parent_pid:
            fail()
        return real(*args)
    return stand_in


def always(fail):
    def stand_in(*args):
        fail()
    return stand_in


def exit_seven():
    os._exit(7)


def raise_runtime():
    raise RuntimeError("coloring failed")


def raise_bound():
    raise BoundViolation("t_count: achieved 316 vs bound 315")


class TestChildFailure:
    """A failing child of the toy job: exit 3, the in-process error line,
    no file written and no child left."""

    def check(self, tmp_path, monkeypatch, capsys, limit):
        out = tmp_path / "a.qc"
        code, stdout, err = run_synth(TOY + ["--out", str(out)], limit,
                                      monkeypatch, capsys)
        assert code == EXIT_INTERNAL
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()
        return err

    def test_child_exits_nonzero(self, deadline, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.setattr(fieldsynth, "_color_order", only_in_child(
            exit_seven, fieldsynth._color_order))
        assert self.check(tmp_path, monkeypatch, capsys, 0) \
            == "internal error: forked child exited with code 7\n"

    @pytest.mark.parametrize("module, name, fail", [
        (fieldsynth, "_color_order", raise_runtime),
        (pas, "check_bounds", raise_bound),
    ], ids=["coloring", "bounds"])
    def test_child_raises(self, module, name, fail, deadline, tmp_path,
                          monkeypatch, capsys):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, always(fail))
        here = self.check(tmp_path, monkeypatch, capsys, IN_PROCESS)
        monkeypatch.setattr(module, name, only_in_child(fail, real))
        forked = self.check(tmp_path, monkeypatch, capsys, 0)
        assert forked == here
        assert here.startswith("internal error: ") and here.count("\n") == 1

