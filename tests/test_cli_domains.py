"""Every numeric CLI flag against the values a domain check must handle.

Each flag -- plus ``--param batch_size`` and one ``--arrival-param`` of each
arrival process that takes one -- is given ``nan``, ``inf``, ``-inf``,
``-1``, ``0`` and a huge value.  Run in process through ``cli.main``, every
case must end one of two ways:

* exit 0 with only finite numbers in the printed report, or
* exit 2 with one ``error:`` line on stderr, and that line names the flag.

``nan`` is never a legal value, so every ``nan`` case must exit 2.  A
traceback (an exception out of ``main``) or a hang fails the case.
"""

import contextlib
import io
import re
import signal

import pytest

from repro import cli

VALUES = ("nan", "inf", "-inf", "-1", "0")
#: A huge value per flag type.  Left out for ``--budget``, ``--num-ops`` and
#: ``--iterations``: their run length grows with the value.
HUGE = {"float": "1e300", "int": "1000000000000"}
GROWS_WITH_VALUE = {"--budget", "--num-ops", "--iterations"}

SERVE = ["serve", "tgat", "--scale", "tiny", "--duration", "50", "--backend", "shape"]
#: Each subcommand's cheapest run; ``{trace}`` is a trace file made once.
BASE = {
    "experiment": ["experiment", "warmup_onetime", "--scale", "tiny"],
    "profile": ["profile", "tgat", "--scale", "tiny", "--backend", "shape"],
    "serve": SERVE,
    "trace": ["trace", "{trace}"],
    "fuzz": ["fuzz", "--budget", "1"],
}
AUTOSCALE = ["--topology", "2n-1xA100-eth", "--autoscale"]

#: (subcommand, flag, type, the arguments that make the run read the flag)
FLAGS = [
    ("experiment", "--seed", "int", []),
    ("experiment", "--max-rows", "int", []),
    ("profile", "--iterations", "int", []),
    ("serve", "--rate", "float", []),
    ("serve", "--slo-ms", "float", ["--policy", "slo"]),
    ("serve", "--duration", "float", []),
    ("serve", "--max-batch-size", "int", []),
    ("serve", "--batch-timeout-ms", "float", []),
    ("serve", "--events-per-request", "int", []),
    ("serve", "--seed", "int", []),
    ("serve", "--gpus", "int", ["--topology", "2xA100-pcie", "--placement", "replicate"]),
    ("serve", "--min-replicas", "int", AUTOSCALE),
    ("serve", "--max-replicas", "int", AUTOSCALE),
    ("serve", "--cache-mb", "float", ["--cache"]),
    ("serve", "--staleness-ms", "float", ["--cache"]),
    ("serve", "--backfill", "int", ["--cache"]),
    ("trace", "--top", "int", []),
    ("fuzz", "--seed", "int", []),
    ("fuzz", "--budget", "int", []),
    ("fuzz", "--num-ops", "int", []),
    ("fuzz", "--fault-rate", "float", []),
]

#: (subcommand, option, key, the arguments that make the run read it);
#: ``poisson`` and ``trace`` take no arrival parameter.
PARAMS = [
    ("profile", "--param", "batch_size", []),
    ("serve", "--param", "batch_size", []),
    ("serve", "--arrival-param", "on_ms", ["--arrival", "bursty"]),
    ("serve", "--arrival-param", "period_ms", ["--arrival", "diurnal"]),
    ("serve", "--arrival-param", "flash_multiplier", ["--arrival", "flash-crowd"]),
]


def flag_cases():
    for command, flag, kind, extra in FLAGS:
        values = VALUES if flag in GROWS_WITH_VALUE else VALUES + (HUGE[kind],)
        for value in values:
            # ``--flag=value``: argparse would read a bare ``-inf`` as an option.
            yield pytest.param(
                command, extra + [f"{flag}={value}"], flag, value, id=f"{command} {flag}={value}"
            )
    for command, option, key, extra in PARAMS:
        for value in VALUES + (HUGE["float"],):
            yield pytest.param(
                command,
                extra + [option, f"{key}={value}"],
                key,
                value,
                id=f"{command} {option} {key}={value}",
            )


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("domains") / "serve.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(SERVE + ["--trace", str(path)]) == 0
    return str(path)


@contextlib.contextmanager
def deadline(seconds):
    """Fail a case that hangs instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@pytest.mark.parametrize("command, argv, name, value", flag_cases())
def test_a_numeric_flag_runs_finite_or_exits_2_naming_itself(
    command, argv, name, value, trace_file, capsys
):
    base = [arg.format(trace=trace_file) for arg in BASE[command]]
    with deadline(60):
        try:
            code = cli.main(base + argv)
        except SystemExit as exit_:  # argparse refuses a flag this way
            code = exit_.code
    out, err = capsys.readouterr()
    assert code in (0, 2), (code, err)
    if code == 0:
        assert value != "nan", "a NaN flag value was accepted"
        assert not NON_FINITE.findall(out), out
        return
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    names = (name, name.lstrip("-").replace("-", "_"))
    assert any(spelling in errors[0] for spelling in names), errors[0]
