"""The benchmark tracer: namespace swapping, counts and the self-time partition."""

import sys
import types

import pytest

import echolab.cli  # noqa: F401  (loads every traced module)
from echolab import cli, dynsys, reservoir
from echolab.dynsys import LorenzParams
from tracer import TRACED_MODULES, Tracer


def _bindings(package="echolab"):
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
        for attr, obj in vars(mod).items()
    }


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


INNER = """
def leaf(clock):
    clock.advance(1.0)

def middle(clock):
    clock.advance(2.0)
    leaf(clock)
    leaf(clock)

def countdown(clock, n):
    clock.advance(1.0)
    return countdown(clock, n - 1) if n else 0

def _private(clock):
    clock.advance(5.0)
"""

OUTER = """
def top(clock):
    clock.advance(3.0)
    middle(clock)
    _private(clock)
"""


@pytest.fixture
def fakepkg(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    exec(INNER, vars(inner))
    # The outer module binds inner's functions directly, as the CLI does.
    outer.middle = inner.middle
    outer._private = inner._private
    exec(OUTER, vars(outer))
    for mod in (pkg, inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return inner, outer


class TestNamespaceSwap:
    def test_every_binding_wrapped_and_restored(self):
        before = _bindings()
        tracer = Tracer()
        targets = tracer.targets()
        assert {name.split(".")[0] for name, _ in targets.values()} == set(TRACED_MODULES)
        with tracer:
            during = _bindings()
            for key, obj in before.items():
                if id(obj) in targets:
                    assert during[key] is not obj, key
                    assert during[key].__wrapped__ is obj, key
                else:
                    assert during[key] is obj, key
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_direct_imports_share_one_wrapper(self):
        original = reservoir.drive
        with Tracer():
            assert cli.drive is reservoir.drive is echolab.drive
            assert cli.drive is not original
            assert cli.drive.__wrapped__ is original
        assert cli.drive is original and reservoir.drive is original

    def test_private_and_untraced_module_functions_untouched(self, fakepkg):
        inner, outer = fakepkg
        private, middle, top = inner._private, inner.middle, outer.top
        with Tracer(package="fakepkg", modules=("inner",)):
            assert inner._private is private and outer._private is private
            assert outer.top is top
            assert outer.middle.__wrapped__ is middle

    def test_double_install_rejected(self):
        tracer = Tracer()
        with tracer:
            with pytest.raises(RuntimeError):
                tracer.install()

    def test_intra_module_calls_are_counted(self):
        tracer = Tracer()
        with tracer:
            cli.integrate_lorenz(LorenzParams(), 5)
        assert tracer.get("dynsys.integrate_lorenz").calls == 1
        assert tracer.get("dynsys.lorenz_step").calls == 5
        assert tracer.get("dynsys.rk4_step").calls == 5
        assert tracer.get("dynsys.lorenz_rhs").calls == 20
        assert not hasattr(dynsys.lorenz_rhs, "__wrapped__")


class TestSelfTime:
    def test_self_times_partition_the_span(self, fakepkg):
        inner, outer = fakepkg
        clock = FakeClock()
        tracer = Tracer(package="fakepkg", modules=("inner", "outer"), clock=clock)
        with tracer:
            tracer.span("bench.run", outer.top, clock)
        top, middle, leaf = (tracer.get(m) for m in ("outer.top", "inner.middle", "inner.leaf"))
        # top: 3 own + 4 in middle + 5 in the untraced _private
        assert (top.busy_s, top.self_s) == (12.0, 8.0)
        assert (middle.busy_s, middle.self_s) == (4.0, 2.0)
        assert (leaf.calls, leaf.busy_s, leaf.self_s) == (2, 2.0, 2.0)
        run = tracer.get("bench.run")
        assert (run.busy_s, run.self_s) == (12.0, 0.0)
        assert sum(s.self_s for s in tracer.stats.values()) == run.busy_s

    def test_recursion_counts_busy_once(self, fakepkg):
        inner, _ = fakepkg
        clock = FakeClock()
        tracer = Tracer(package="fakepkg", modules=("inner",), clock=clock)
        with tracer:
            inner.countdown(clock, 3)
        stats = tracer.get("inner.countdown")
        assert (stats.calls, stats.busy_s, stats.self_s) == (4, 4.0, 4.0)

    def test_exception_closes_the_span(self, fakepkg):
        inner, _ = fakepkg
        clock = FakeClock()
        tracer = Tracer(package="fakepkg", modules=("inner",), clock=clock)
        with tracer:
            with pytest.raises(TypeError):
                inner.leaf()
            inner.leaf(clock)
        assert tracer.get("inner.leaf").calls == 2
        assert tracer._stack == []
