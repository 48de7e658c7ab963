"""Chaos suite: injected faults must be detected or harmless — never silent.

Kernel faults are injected into the frontier primitives mid-run with the
full guard mode watching; input faults are thrown at the front doors.  The
acceptance bar for every case: a typed error, or a result bit-identical to
the fault-free reference.
"""

import numpy as np
import pytest

from repro.core.engines import fallback_chain
from repro.core.matching.api import maximal_matching
from repro.core.matching.parallel_vectorized import parallel_matching_vectorized
from repro.core.matching.prefix import prefix_greedy_matching
from repro.core.matching.rootset_vectorized import rootset_matching_vectorized
from repro.core.matching.sequential import sequential_greedy_matching
from repro.core.mis.api import maximal_independent_set
from repro.core.mis.parallel_vectorized import parallel_mis_vectorized
from repro.core.mis.prefix import prefix_greedy_mis
from repro.core.mis.rootset_vectorized import rootset_mis_vectorized
from repro.core.mis.sequential import sequential_greedy_mis
from repro.core.orderings import random_priorities
from repro.errors import (
    InvalidGraphError,
    InvalidOrderingError,
    InvariantViolationError,
)
from repro.graphs.generators import uniform_random_graph
from repro.robustness import (
    GRAPH_FAULTS,
    KERNEL_FAULTS,
    RANK_FAULTS,
    ChaosInjector,
    FaultSpec,
    corrupt_graph,
    corrupt_ranks,
    kernel_faults_for,
)

pytestmark = pytest.mark.chaos

MIS_KERNEL_FAULTS = ("drop-frontier", "dup-frontier", "foreign-frontier",
                     "count-extra", "min-lift")
MM_KERNEL_FAULTS = ("drop-frontier", "dup-frontier", "foreign-frontier",
                    "cursor-skip", "min-lift")
LOUD = (InvariantViolationError, IndexError, ValueError, FloatingPointError,
        OverflowError)

#: Guarded kernel-composed engines the kernel-fault matrices strike.  One
#: worker keeps parallel-vec's gathers local, so the patched kernels run
#: on the coordinator.  MIS prefix runs at a 50-slot prefix: the default
#: n/50 (5 slots here) leaves almost no internal arcs, so no strike lands.
MIS_FAULT_ENGINES = (
    ("rootset-vec", rootset_mis_vectorized, {"use_cache": False}),
    ("parallel-vec", parallel_mis_vectorized,
     {"workers": 1, "use_cache": False}),
    ("prefix", prefix_greedy_mis, {"prefix_frac": 0.2}),
)
MM_FAULT_ENGINES = (
    ("rootset-vec", rootset_matching_vectorized, {"use_cache": False}),
    ("parallel-vec", parallel_matching_vectorized,
     {"workers": 1, "use_cache": False}),
    ("prefix", prefix_greedy_matching, {}),
)


@pytest.fixture(scope="module")
def instance():
    g = uniform_random_graph(250, 750, seed=11)
    el = g.edge_list()
    vranks = random_priorities(g.num_vertices, seed=4)
    eranks = random_priorities(el.num_edges, seed=4)
    return {
        "g": g,
        "el": el,
        "vranks": vranks,
        "eranks": eranks,
        "mis_ref": sequential_greedy_mis(g, vranks).status,
        "mm_ref": sequential_greedy_matching(el, eranks).status,
    }


@pytest.mark.parametrize("kind", MIS_KERNEL_FAULTS)
@pytest.mark.parametrize("after", [0, 1, 2, 3])
def test_mis_kernel_faults_detected_or_harmless(instance, kind, after):
    for name, engine, knobs in MIS_FAULT_ENGINES:
        spec = FaultSpec(kind=kind, seed=99, after=after)
        try:
            with ChaosInjector(spec) as chaos:
                status = engine(
                    instance["g"], instance["vranks"], guards="full", **knobs,
                ).status
        except LOUD:
            continue  # detected
        if chaos.fired:
            assert np.array_equal(status, instance["mis_ref"]), (
                f"silent wrong answer: {name} {kind} after={after}"
            )


@pytest.mark.parametrize("kind", MM_KERNEL_FAULTS)
@pytest.mark.parametrize("after", [0, 1, 2, 3])
def test_mm_kernel_faults_detected_or_harmless(instance, kind, after):
    for name, engine, knobs in MM_FAULT_ENGINES:
        spec = FaultSpec(kind=kind, seed=99, after=after)
        try:
            with ChaosInjector(spec) as chaos:
                status = engine(
                    instance["el"], instance["eranks"], guards="full", **knobs,
                ).status
        except LOUD:
            continue  # detected
        if chaos.fired:
            assert np.array_equal(status, instance["mm_ref"]), (
                f"silent wrong answer: {name} {kind} after={after}"
            )


def test_at_least_one_kernel_fault_is_caught_by_guards(instance):
    """The matrix above tolerates harmless strikes; this pins down that the
    guard layer actually fires for a blatant corruption, and that the
    min-lift fault reaches both prefix engines.  (Most MIS lifts are
    harmless: the raised minimum must pass the vertex's own rank to mint
    a false root, hence the seed sweep on the min-lift rows.)"""
    for kind, seeds, engine, payload, ranks, knobs in (
        ("drop-frontier", (1,), rootset_mis_vectorized, instance["g"],
         instance["vranks"], {"use_cache": False}),
        ("min-lift", range(10), prefix_greedy_mis, instance["g"],
         instance["vranks"], {"prefix_frac": 0.2}),
        ("min-lift", range(10), prefix_greedy_matching, instance["el"],
         instance["eranks"], {}),
    ):
        caught = 0
        for seed in seeds:
            for after in range(4):
                try:
                    with ChaosInjector(FaultSpec(kind, seed=seed,
                                                 after=after)):
                        engine(payload, ranks, guards="full", **knobs)
                except InvariantViolationError:
                    caught += 1
        assert caught > 0, f"{kind} on {engine.__name__}"


@pytest.mark.parametrize("kind", RANK_FAULTS)
def test_rank_faults_rejected_at_mis_front_door(instance, kind):
    bad = corrupt_ranks(instance["vranks"], kind, seed=1)
    with pytest.raises(InvalidOrderingError):
        maximal_independent_set(instance["g"], bad, method="rootset-vec")


@pytest.mark.parametrize("kind", RANK_FAULTS)
def test_rank_faults_rejected_at_mm_front_door(instance, kind):
    bad = corrupt_ranks(instance["eranks"], kind, seed=1)
    with pytest.raises(InvalidOrderingError):
        maximal_matching(instance["el"], bad, method="rootset-vec")


@pytest.mark.parametrize("kind", GRAPH_FAULTS)
def test_graph_faults_rejected_at_both_front_doors(instance, kind):
    bad = corrupt_graph(instance["g"], kind, seed=1)
    with pytest.raises(InvalidGraphError):
        maximal_independent_set(bad, method="rootset-vec")
    with pytest.raises(InvalidGraphError):
        maximal_matching(bad, method="rootset-vec")


def test_injector_rejects_input_fault_kinds():
    for kind in RANK_FAULTS + GRAPH_FAULTS:
        with pytest.raises(ValueError):
            ChaosInjector(FaultSpec(kind=kind))
    with pytest.raises(ValueError):
        FaultSpec(kind="not-a-fault")


#: The kernel faults that reach each engine module: the kinds whose
#: kernel it binds.
FAULT_REACH = {
    "repro.core.mis.prefix": ("min-lift",),
    "repro.core.matching.prefix": ("min-lift",),
    "repro.core.mis.rootset_vectorized": (
        "drop-frontier", "dup-frontier", "foreign-frontier", "count-extra",
    ),
    "repro.core.matching.rootset_vectorized": (
        "drop-frontier", "dup-frontier", "foreign-frontier", "cursor-skip",
    ),
    "repro.core.mis.sequential": (),
    "repro.core.matching.sequential": (),
    "repro.core.mis.rootset": (),
}


@pytest.mark.parametrize("module", sorted(FAULT_REACH))
def test_kernel_faults_for_names_the_kinds_the_injector_patches(module):
    """A kind is listed exactly when arming it patches the module."""
    import importlib

    mod = importlib.import_module(module)
    assert kernel_faults_for(module) == FAULT_REACH[module]
    for kind, kernel in KERNEL_FAULTS.items():
        before = getattr(mod, kernel, None)
        with ChaosInjector(FaultSpec(kind)):
            patched = getattr(mod, kernel, None) is not before
        assert getattr(mod, kernel, None) is before
        assert patched == (kind in FAULT_REACH[module]), kind


def test_fault_spec_covers_every_kernel_fault():
    assert set(MIS_KERNEL_FAULTS) | set(MM_KERNEL_FAULTS) == set(KERNEL_FAULTS)


def test_fallback_degrades_around_a_faulted_engine(instance):
    g, vranks = instance["g"], instance["vranks"]
    spec = FaultSpec(kind="count-extra", seed=7, after=0)
    with ChaosInjector(spec) as chaos:
        res = maximal_independent_set(
            g, vranks, method="rootset-vec", guards="full", fallback=True,
        )
    if not chaos.fired:
        pytest.skip("fault site never reached on this instance")
    assert np.array_equal(res.status, instance["mis_ref"])
    if res.stats.aux.get("degraded"):
        expected = next(m for m in fallback_chain("mis") if m != "rootset-vec")
        assert res.stats.aux["fallback_engine"] == expected
        assert res.stats.aux["fallback_attempts"]


def test_cheap_guards_fault_must_degrade_with_attempt_log():
    """Coverage-gap case: the test above only checks degradation *if* it
    happens; this instance is pinned so the cheap guard provably fires in
    the faulted engine and the front door provably degrades to the next
    engine of the chain (rootset-vec → sequential, parallel-vec →
    rootset-vec)."""
    g = uniform_random_graph(64, 200, seed=3)
    ranks = random_priorities(g.num_vertices, seed=5)
    ref = sequential_greedy_mis(g, ranks).status
    for method, knobs in (
        ("rootset-vec", {}),
        ("parallel-vec", {"workers": 1, "min_fanout": 0}),
    ):
        fault = FaultSpec(kind="dup-frontier", seed=7, after=0)
        with ChaosInjector(fault) as chaos:
            res = maximal_independent_set(
                g, ranks, method=method, guards="cheap", fallback=True,
                **knobs,
            )
        assert chaos.fired, f"{method}: pinned fault site was never reached"
        assert res.stats.aux.get("degraded") is True, (
            f"{method}: cheap guards let a dup-frontier fault through "
            "without degrading"
        )
        expected = next(m for m in fallback_chain("mis") if m != method)
        assert res.stats.aux["fallback_engine"] == expected
        attempts = res.stats.aux["fallback_attempts"]
        assert attempts and attempts[0]["method"] == method
        assert "error" in attempts[0]
        assert np.array_equal(res.status, ref)
