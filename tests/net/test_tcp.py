"""The real-socket transport: one bounded TCP test on 127.0.0.1.

The loopback suite proves the endpoint logic; this test proves the
asyncio driver delivers the same bits over actual sockets — partial
reads, frame reassembly, and concurrent party connections included.
Kept to a handful of protocols so the smoke job stays fast; fault
injection is a loopback-only feature and is asserted rejected here.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.core.runner import run_protocol
from repro.net import FaultPlan, run_networked
from repro.protocols import protocol_case


def test_tcp_matches_in_memory_runner():
    for name in ("sequential-and", "two-party-disjointness", "functional-random"):
        case = protocol_case(name)
        inputs = case.input_tuples()[-1]
        reference = run_protocol(
            case.build(), inputs, rng=random.Random(31)
        )
        networked = run_networked(
            case.build(), inputs, seed=31, transport="tcp", timeout=60.0
        )
        assert networked == reference, name


def test_tcp_rejects_fault_plans():
    case = protocol_case("sequential-and")
    with pytest.raises(ValueError, match="loopback-only"):
        run_networked(
            case.build(),
            case.input_tuples()[0],
            transport="tcp",
            faults=FaultPlan(drop_rate=0.1),
        )


def test_loopback_users_never_load_asyncio():
    """The TCP transport (and the asyncio / ssl it imports) loads only
    when a TCP run or a TCP name asks for it — several MB of resident
    memory a loopback-only process does not pay."""
    script = (
        "import sys\n"
        "import repro.net\n"
        "from repro.net import run_networked\n"
        "from repro.protocols import SequentialAndProtocol\n"
        "run = run_networked(SequentialAndProtocol(3), (1, 1, 1), seed=0)\n"
        "assert run.output == 1\n"
        "assert 'asyncio' not in sys.modules, 'loopback loaded asyncio'\n"
        "from repro.net import TCP_RETRY_POLICY, run_tcp\n"
        "import repro.net.tcp as tcp\n"
        "assert run_tcp is tcp.run_tcp\n"
        "assert TCP_RETRY_POLICY is tcp.TCP_RETRY_POLICY\n"
        "assert 'asyncio' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
