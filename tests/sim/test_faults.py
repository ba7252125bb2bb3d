"""Tests for the deterministic fault-injection layer (repro.sim.faults)."""

import pytest

from repro.elements import Router
from repro.elements.devices import LoopbackDevice
from repro.lang.build import parse_graph
from repro.net.packet import Packet
from repro.sim.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultyDevice,
    InjectedFault,
)

PIPE = "f :: Idle; c :: Counter; q :: Queue(8); u :: Unqueue; d :: Discard; f -> c -> q -> u -> d;"


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=[
                {"kind": "device_flap", "device": "eth0", "at": 2, "ticks": 3},
                {"kind": "corrupt_frame", "device": "eth0", "after": 4, "xor": 0x10},
                {"kind": "element_error", "element": "chk", "after": 1, "count": 2},
                {"kind": "worker_crash", "at": 1},
            ],
            seed=9,
            name="trip",
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_dict() == plan.to_dict()
        assert again.name == "trip" and again.seed == 9
        assert len(again) == 4

    def test_save_load(self, tmp_path):
        plan = FaultPlan(faults=[{"kind": "device_fail", "device": "eth1", "at": 0}])
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path).to_dict() == plan.to_dict()

    def test_seeded_deterministic(self):
        kwargs = dict(devices=["eth0", "eth1"], elements=["chk", "rt"], ticks=12, events=48)
        one = FaultPlan.seeded(5, **kwargs)
        two = FaultPlan.seeded(5, **kwargs)
        assert one.to_dict() == two.to_dict()
        # Draws only from the offered names.
        assert set(one.device_names()) <= {"eth0", "eth1"}
        assert set(one.element_names()) <= {"chk", "rt"}

    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    def test_seeded_plans_are_pinned(self, sharded):
        """What each seed draws, written out: a change to the generator
        that moves any fault of any seed shows here."""
        kwargs = dict(devices=["eth0", "eth1"], elements=["chk", "rt", "c0"], ticks=12, events=48)
        flap = {
            1: {"kind": "device_flap", "device": "eth0", "at": 4, "ticks": 1},
            7: {"kind": "device_flap", "device": "eth1", "at": 1, "ticks": 2},
            42: {"kind": "device_flap", "device": "eth0", "at": 0, "ticks": 3},
        }
        corrupt = {
            1: {"kind": "corrupt_frame", "device": "eth1", "after": 7, "count": 2, "offset": 30, "xor": 98},
            7: {"kind": "corrupt_frame", "device": "eth0", "after": 8, "count": 1, "offset": 14, "xor": 150},
            42: {"kind": "corrupt_frame", "device": "eth0", "after": 2, "count": 3, "offset": 0, "xor": 174},
        }
        if sharded:
            last = {
                1: {"kind": "worker_crash", "at": 3, "worker": 1},
                7: {"kind": "worker_crash", "at": 0, "worker": 3},
                42: {"kind": "worker_crash", "at": 11, "worker": 1},
            }
        else:
            last = {
                1: {"kind": "element_error", "element": "chk", "after": 15, "count": 1},
                7: {"kind": "element_error", "element": "c0", "after": 6, "count": 1},
                42: {"kind": "element_error", "element": "c0", "after": 13, "count": 1},
            }
        for seed in (1, 7, 42):
            plan = FaultPlan.seeded(seed, sharded=sharded, **kwargs)
            assert plan.faults == [flap[seed], corrupt[seed], last[seed]], seed

    def test_seeded_seeds_differ(self):
        kwargs = dict(devices=["eth0", "eth1"], elements=["a", "b", "c"], ticks=12, events=48)
        plans = {FaultPlan.seeded(seed, **kwargs).to_json() for seed in range(8)}
        assert len(plans) > 1

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "meteor_strike", "at": 0},
            {"kind": "device_flap", "device": "eth0", "at": 1},  # missing ticks
            {"kind": "worker_crash", "at": 1, "bogus": 2},  # unknown field
            {"kind": "element_error", "element": "c", "after": -1},  # negative
            {"kind": "corrupt_frame", "device": "e", "after": "soon"},  # non-int
        ],
    )
    def test_validate_rejects(self, fault):
        with pytest.raises(FaultError):
            FaultPlan(faults=[fault])


class TestFaultyDevice:
    def _wrap(self, faults):
        injector = FaultInjector(FaultPlan(faults=faults))
        device = LoopbackDevice("eth0")
        wrapped = injector.wrap_devices({"eth0": device})["eth0"]
        assert isinstance(wrapped, FaultyDevice)
        return injector, device, wrapped

    def test_flap_window_delays_frames(self):
        injector, device, wrapped = self._wrap(
            [{"kind": "device_flap", "device": "eth0", "at": 1, "ticks": 2}]
        )
        wrapped.receive_frame(b"frame-a")
        injector.tick()  # tick 0: up
        assert wrapped.rx_dequeue() == b"frame-a"
        wrapped.receive_frame(b"frame-b")
        injector.tick()  # tick 1: down
        assert wrapped.rx_dequeue() is None
        assert wrapped.tx_room() == 0
        assert wrapped.tx_enqueue(b"out") is False
        injector.tick()  # tick 2: still down
        assert wrapped.rx_dequeue() is None
        injector.tick()  # tick 3: back up; the delayed frame drains
        assert wrapped.rx_dequeue() == b"frame-b"
        counts = injector.fault_counts()
        assert counts["devices"]["eth0"]["down_polls"] == 2
        assert counts["ticks"] == 4

    def test_permanent_failure(self):
        injector, device, wrapped = self._wrap(
            [{"kind": "device_fail", "device": "eth0", "at": 1}]
        )
        wrapped.receive_frame(b"stranded")
        for _ in range(5):
            injector.tick()
        assert wrapped.rx_dequeue() is None  # stranded forever
        assert device.rx  # but still queued on the real hardware

    def test_corruption_window(self):
        injector, device, wrapped = self._wrap(
            [{"kind": "corrupt_frame", "device": "eth0", "after": 0, "count": 1}]
        )
        wrapped.receive_frame(bytes([0x00, 0x41]))
        wrapped.receive_frame(bytes([0x00, 0x41]))
        first = wrapped.rx_dequeue()
        second = wrapped.rx_dequeue()
        assert first[0] == 0xFF and first[1] == 0x41  # default xor at offset 0
        assert second == bytes([0x00, 0x41])
        assert injector.fault_counts()["devices"]["eth0"]["corrupted_frames"] == 1

    def test_unfaulted_devices_pass_through(self):
        injector = FaultInjector(
            FaultPlan(faults=[{"kind": "device_fail", "device": "eth9", "at": 0}])
        )
        device = LoopbackDevice("eth0")
        assert injector.wrap_devices({"eth0": device})["eth0"] is device


class TestElementFaults:
    def _prepared(self, faults):
        injector = FaultInjector(FaultPlan(faults=faults))
        router = Router(parse_graph(PIPE))
        injector.prepare_router(router)
        return injector, router

    def test_injected_error_window(self):
        injector, router = self._prepared(
            [{"kind": "element_error", "element": "c", "after": 1, "count": 1}]
        )
        router.push_packet("c", 0, Packet(b"one"))  # call 1: clean
        with pytest.raises(InjectedFault) as excinfo:
            router.push_packet("c", 0, Packet(b"two"))  # call 2: boom
        assert excinfo.value.element_name == "c"
        router.push_packet("c", 0, Packet(b"three"))  # window passed
        counts = injector.fault_counts()["elements"]["c"]
        assert counts == {"calls": 3, "errors_fired": 1}
        assert router["c"].count == 2  # the faulted packet never counted

    def test_prepare_is_idempotent(self):
        injector, router = self._prepared(
            [{"kind": "element_error", "element": "c", "after": 10}]
        )
        injector.prepare_router(router)  # second prepare must not re-wrap
        router.push_packet("c", 0, Packet(b"x"))
        assert injector.fault_counts()["elements"]["c"]["calls"] == 1

    def test_router_marked_uncacheable(self):
        _injector, router = self._prepared(
            [{"kind": "element_error", "element": "c", "after": 0}]
        )
        assert router._fault_uncacheable
        assert router["c"]._fault_wrapped
        assert router.fault_injector is not None

    def test_custom_message(self):
        _injector, router = self._prepared(
            [
                {
                    "kind": "element_error",
                    "element": "c",
                    "after": 0,
                    "message": "simulated parity error",
                }
            ]
        )
        with pytest.raises(InjectedFault, match="simulated parity error"):
            router.push_packet("c", 0, Packet(b"x"))

    def test_counting_continues_across_routers(self):
        """Hot-swap hands the injector a new router: the per-element
        call counter is injector-owned, so the window does not reset."""
        injector, router = self._prepared(
            [{"kind": "element_error", "element": "c", "after": 1, "count": 1}]
        )
        router.push_packet("c", 0, Packet(b"one"))
        second = Router(parse_graph(PIPE))
        injector.prepare_router(second)
        with pytest.raises(InjectedFault):
            second.push_packet("c", 0, Packet(b"two"))


class TestWorkerFaultValidation:
    """The self-healing fault kinds (worker_kill / worker_hang /
    worker_poison) and the file-attributed loading errors that guard
    them."""

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "worker_kill", "at": 1},
            {"kind": "worker_kill", "at": 2, "worker": 3, "phase": "commit"},
            {"kind": "worker_hang", "at": 1, "seconds": 0.5},
            {"kind": "worker_poison", "at": 0, "frame": "deadbeef"},
        ],
    )
    def test_valid_worker_faults(self, fault):
        assert len(FaultPlan(faults=[fault])) == 1

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "worker_kill"},  # missing at
            {"kind": "worker_kill", "at": 1, "phase": "sideways"},
            {"kind": "worker_kill", "at": 1, "worker": True},  # bool != int
            {"kind": "worker_hang", "at": 1, "seconds": 0},
            {"kind": "worker_hang", "at": 1, "seconds": True},
            {"kind": "worker_poison", "at": 0},  # missing frame
            {"kind": "worker_poison", "at": 0, "frame": ""},
            {"kind": "worker_poison", "at": 0, "frame": "not-hex"},
            {"kind": "worker_poison", "at": 0, "frame": 42},
        ],
    )
    def test_invalid_worker_faults(self, fault):
        with pytest.raises(FaultError):
            FaultPlan(faults=[fault])


class TestPlanLoadingErrors:
    """FaultPlan.load / from_json must fail *at the boundary*, with the
    file attributed — never halfway through a chaos run."""

    def test_load_unknown_kind_names_file(self, tmp_path):
        path = tmp_path / "bad-kind.json"
        path.write_text('{"faults": [{"kind": "meteor_strike", "at": 0}]}')
        with pytest.raises(FaultError) as excinfo:
            FaultPlan.load(path)
        message = str(excinfo.value)
        assert "bad-kind.json" in message and "meteor_strike" in message

    def test_load_missing_field_names_file(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"faults": [{"kind": "worker_poison", "at": 0}]}')
        with pytest.raises(FaultError) as excinfo:
            FaultPlan.load(path)
        message = str(excinfo.value)
        assert "missing.json" in message and "frame" in message

    def test_load_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text('{"faults": [')
        with pytest.raises(FaultError) as excinfo:
            FaultPlan.load(path)
        assert "mangled.json" in str(excinfo.value)

    def test_load_non_object_names_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FaultError) as excinfo:
            FaultPlan.load(path)
        message = str(excinfo.value)
        assert "list.json" in message and "object" in message

    def test_from_json_default_source(self):
        with pytest.raises(FaultError) as excinfo:
            FaultPlan.from_json("not json at all")
        assert "<json>" in str(excinfo.value)
