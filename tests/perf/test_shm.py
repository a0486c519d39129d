"""repro.perf.shm: shared-memory grid result transport.

The transport is a pure optimization: ``pack_result`` /
``unpack_result`` must round-trip any result tree exactly, fall back to
plain pickling wherever a segment cannot be created, and never leak a
segment — the parent unlinks each one on delivery and sweeps orphans
(a worker that died between export and delivery) at pool shutdown.
Worker task functions live at module level so they are picklable.
"""

import os

import numpy

from repro.obs import REGISTRY, disable_metrics, enable_metrics
from repro.perf import map_grid, shm


def make_result(scale):
    """A nested result tree mixing ndarrays with ordinary values."""
    return {
        "table": numpy.arange(scale * 16, dtype=numpy.float64).reshape(
            scale, 16
        ),
        "meta": {"n": scale, "label": "cell"},
        "rows": [numpy.ones(scale, dtype=numpy.int64), "tail", 3.5],
        "pair": (numpy.zeros(4, dtype=numpy.float32), None),
    }


def assert_results_equal(actual, expected):
    assert actual["meta"] == expected["meta"]
    assert actual["rows"][1:] == expected["rows"][1:]
    assert actual["pair"][1] is expected["pair"][1]
    numpy.testing.assert_array_equal(actual["table"], expected["table"])
    assert actual["table"].dtype == expected["table"].dtype
    numpy.testing.assert_array_equal(actual["rows"][0], expected["rows"][0])
    numpy.testing.assert_array_equal(actual["pair"][0], expected["pair"][0])
    assert actual["pair"][0].dtype == expected["pair"][0].dtype


def segment_count(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX
        return 0
    return sum(
        1 for name in os.listdir("/dev/shm") if name.startswith(prefix)
    )


def big_array_task(n):
    # Large enough to clear the default 64 KiB floor.
    return numpy.full((n, 4096), float(n), dtype=numpy.float64)


def nested_task(n):
    return {"grid": numpy.arange(n * 16384, dtype=numpy.float64), "n": n}


class TestPackUnpackRoundTrip:
    def test_every_array_diverted_at_floor_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        original = make_result(8)
        packed = shm.pack_result(make_result(8))
        tokens = [
            packed["table"],
            packed["rows"][0],
            packed["pair"][0],
        ]
        assert all(
            isinstance(token, shm.ShmArrayToken) for token in tokens
        )
        assert packed["meta"] == original["meta"]
        unpacked, received = shm.unpack_result(packed)
        assert_results_equal(unpacked, original)
        assert received == sum(
            original[key].nbytes
            for key in ("table",)
        ) + original["rows"][0].nbytes + original["pair"][0].nbytes
        assert segment_count(shm.segment_prefix(os.getppid())) == 0

    def test_small_arrays_stay_inline(self):
        # Default floor: a few hundred bytes pickles as-is.
        result = make_result(4)
        packed = shm.pack_result(result)
        assert packed["table"] is result["table"]
        assert packed["rows"][0] is result["rows"][0]
        unpacked, received = shm.unpack_result(packed)
        assert received == 0
        assert unpacked["table"] is result["table"]

    def test_floor_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "1024")
        assert shm.min_shm_bytes() == 1024
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "not-a-number")
        assert shm.min_shm_bytes() == 64 * 1024
        monkeypatch.delenv("REPRO_SHM_MIN_BYTES")
        assert shm.min_shm_bytes() == 64 * 1024

    def test_non_array_results_untouched(self):
        result = {"a": [1, 2, (3, "x")], "b": None}
        assert shm.pack_result(result) == result
        unpacked, received = shm.unpack_result(result)
        assert unpacked == result
        assert received == 0


class TestPickleFallback:
    def test_no_shared_memory_class(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        monkeypatch.setattr(shm, "_shared_memory", lambda: None)
        result = make_result(8)
        packed = shm.pack_result(result)
        assert packed is result

    def test_segment_creation_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")

        class ExplodingSharedMemory:
            def __init__(self, *args, **kwargs):
                raise OSError("no space on /dev/shm")

        monkeypatch.setattr(
            shm, "_shared_memory", lambda: ExplodingSharedMemory
        )
        original = make_result(8)
        packed = shm.pack_result(original)
        # Arrays fall back to themselves; unpack is then a no-op.
        assert packed["table"] is original["table"]
        unpacked, received = shm.unpack_result(packed)
        assert received == 0
        assert unpacked["table"] is original["table"]


class TestOrphanSweep:
    def test_orphans_are_reaped(self):
        # Simulate a worker that exported segments and died before the
        # parent could unpack them: create segments under this process's
        # sweep prefix, then sweep.
        from multiprocessing.shared_memory import SharedMemory

        prefix = shm.segment_prefix(os.getpid())
        names = [f"{prefix}deadbeef{i:02d}" for i in range(3)]
        for name in names:
            segment = SharedMemory(name=name, create=True, size=128)
            segment.close()
            shm._unregister(name)
        assert segment_count(prefix) == 3
        assert shm.sweep_orphans(os.getpid()) == 3
        assert segment_count(prefix) == 0
        # Idempotent once clean.
        assert shm.sweep_orphans(os.getpid()) == 0

    def test_sweep_ignores_other_parents(self):
        from multiprocessing.shared_memory import SharedMemory

        other_prefix = shm.segment_prefix(os.getpid() + 999999)
        name = other_prefix + "cafebabe"
        segment = SharedMemory(name=name, create=True, size=128)
        segment.close()
        shm._unregister(name)
        try:
            assert shm.sweep_orphans(os.getpid()) == 0
            assert segment_count(other_prefix) == 1
        finally:
            reaper = SharedMemory(name=name)
            reaper.close()
            reaper.unlink()


class TestMapGridTransport:
    def teardown_method(self):
        disable_metrics()

    def test_parallel_results_identical_to_serial(self):
        serial = map_grid(big_array_task, [3, 5, 7], shm_transport=False)
        shared = map_grid(big_array_task, [3, 5, 7], workers=2)
        for left, right in zip(serial, shared):
            numpy.testing.assert_array_equal(left, right)
            assert left.dtype == right.dtype

    def test_grid_shm_bytes_counted(self):
        enable_metrics(reset=True)
        results = map_grid(nested_task, [2, 4], workers=2)
        expected_bytes = sum(result["grid"].nbytes for result in results)
        assert [result["n"] for result in results] == [2, 4]
        assert (
            REGISTRY.counter("grid_shm_bytes").value() == expected_bytes
        )
        assert segment_count(shm.segment_prefix(os.getpid())) == 0

    def test_shm_transport_off_counts_nothing(self):
        enable_metrics(reset=True)
        map_grid(nested_task, [2, 4], workers=2, shm_transport=False)
        assert REGISTRY.counter("grid_shm_bytes").value() == 0

    def test_serial_runs_bypass_the_transport(self):
        enable_metrics(reset=True)
        results = map_grid(nested_task, [2])
        assert results[0]["n"] == 2
        assert REGISTRY.counter("grid_shm_bytes").value() == 0
