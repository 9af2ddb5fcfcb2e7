"""The flag-gated hardening layer: config, guard mechanics, end-to-end."""

import pytest

from repro.attacks import AttackSpec
from repro.core.image import CodeImage
from repro.errors import ConfigError
from repro.experiments.adversarial import AdversarialScenario, build_adversarial, run_adversarial
from repro.experiments.scenarios import make_params
from repro.faults.plan import FaultEvent, FaultKind
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.obs.analyze import link_accounting
from repro.obs.invariants import check_events
from repro.protocols.defense import DEFENSE_FLAGS, DefenseConfig, NeighborGuard
from repro.protocols.lr_seluge import build_lr_seluge_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


# -- DefenseConfig -----------------------------------------------------------

def test_from_flags_parsing():
    assert DefenseConfig.from_flags("none") is None
    assert DefenseConfig.from_flags("off") is None
    assert DefenseConfig.from_flags("") is None
    allon = DefenseConfig.from_flags("all")
    assert allon.enabled_flags == tuple(DEFENSE_FLAGS)
    partial = DefenseConfig.from_flags("rate_limit, replay-filter")
    assert partial.rate_limit and partial.replay_filter
    assert not partial.backoff and not partial.stall_watchdog
    with pytest.raises(ConfigError):
        DefenseConfig.from_flags("rate_limit,warp_drive")


def test_labels_and_roundtrip():
    assert DefenseConfig().label == "none"
    assert DefenseConfig.all_on().label == "all"
    cfg = DefenseConfig(backoff=True, stall_watchdog=True, backoff_cap_s=4.0)
    assert cfg.label == "backoff+stall_watchdog"
    again = DefenseConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        DefenseConfig(bucket_capacity=0.0)
    with pytest.raises(ConfigError):
        DefenseConfig(backoff_factor=0.5)
    with pytest.raises(ConfigError):
        DefenseConfig(stall_min_s=10.0, stall_max_s=5.0)


# -- NeighborGuard mechanics --------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0


def _guard(**overrides):
    cfg = DefenseConfig(rate_limit=True, replay_filter=True,
                        bucket_capacity=2.0, bucket_refill_per_s=0.5,
                        quarantine_strikes=2, quarantine_duration_s=10.0,
                        **overrides)
    clock = _Clock()
    return NeighborGuard(cfg, clock, TraceRecorder(), node_id=1), clock


def test_token_bucket_strikes_then_quarantines():
    guard, clock = _guard()
    assert guard.admit_snack(9)
    assert guard.admit_snack(9)
    assert not guard.admit_snack(9)     # bucket empty: strike 1
    assert not guard.quarantined(9)
    assert not guard.admit_snack(9)     # strike 2 -> quarantine
    assert guard.quarantined(9)
    clock.now = 10.5                    # past quarantine_duration_s
    assert not guard.quarantined(9)
    assert guard.trace.counters["defense_quarantine"] == 1


def test_token_bucket_refills_and_forgives():
    guard, clock = _guard()
    assert guard.admit_snack(9) and guard.admit_snack(9)
    assert not guard.admit_snack(9)     # one strike
    clock.now = 4.0                     # 0.5/s refill -> back to capacity
    assert guard.admit_snack(9)         # full refill forgave the strike
    assert not guard.quarantined(9)


def test_honest_pacing_never_quarantined():
    guard, clock = _guard()
    for i in range(50):
        clock.now = i * 3.0             # one SNACK per 3 s vs 0.5/s refill
        assert guard.admit_snack(7)
    assert not guard.quarantined(7)


def test_replay_window_keys_on_identity_and_sender():
    guard, clock = _guard()
    identity = (2, 0, 3, 0, (1, 1))
    assert not guard.snack_replayed(identity, sender=3)  # first sighting
    assert not guard.snack_replayed(identity, sender=3)  # same sender: not a replay
    assert guard.snack_replayed(identity, sender=9)      # relayed verbatim: replay
    assert guard.data_replayed(("d", 0, 1), sender=3) is False
    assert guard.data_replayed(("d", 0, 1), sender=3) is True


def test_replay_window_is_bounded():
    guard, clock = _guard(replay_capacity=4)
    for i in range(10):
        guard.snack_replayed(("id", i), sender=2)
    assert len(guard._seen) <= 4


# -- protocol integration -----------------------------------------------------

def _scenario(**kwargs):
    defaults = dict(protocol="lr-seluge", topology="star:4", image_size=2048,
                    k=4, n=6, seed=1, max_time=1500.0)
    defaults.update(kwargs)
    return AdversarialScenario(**defaults)


def test_disabled_defense_matches_no_defense_exactly():
    """An all-off DefenseConfig must not perturb a single counter or draw."""
    off = run_adversarial(_scenario(defense=None))
    zero = run_adversarial(_scenario(defense=DefenseConfig()))
    assert zero.latency == off.latency
    assert zero.counters == off.counters


def test_backoff_delay_grows_and_caps():
    sim = Simulator()
    rngs = RngRegistry(3)
    trace = TraceRecorder()
    radio = Radio(sim, star_topology(2), NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    defense = DefenseConfig(backoff=True, backoff_factor=2.0,
                            backoff_cap_s=6.0, backoff_jitter=0.25)
    params = make_params("lr-seluge", image_size=2048, k=4, n=6)
    image = CodeImage.synthetic(2048, version=2, seed=3)
    _base, nodes, _pre = build_lr_seluge_network(
        sim, radio, rngs, trace, params, image=image, defense=defense)
    node = nodes[0]
    base_timeout = node.timing.request_timeout
    node._request_tries = 1
    assert node._request_retry_delay() == base_timeout  # first retry: unchanged
    delays = []
    for tries in range(2, 12):
        node._request_tries = tries
        delays.append(node._request_retry_delay())
    assert delays[0] > base_timeout
    assert max(delays) <= 6.0 * 1.25  # cap plus jitter spread
    assert trace.counters["defense_backoff_applied"] == len(delays)


def test_stall_watchdog_rotates_after_base_crash():
    # Crash the base mid-dissemination: stuck receivers must re-request.
    faults = (FaultEvent(8.0, FaultKind.NODE_CRASH, node=0),)
    result = run_adversarial(_scenario(
        defense=DefenseConfig(stall_watchdog=True, stall_min_s=3.0),
        faults=faults, max_time=400.0))
    assert result.counters["defense_stall_rerequest"] > 0


def test_rate_limit_quarantines_dor_flooder():
    """Satellite: the token bucket bounds the victim's serve count."""
    attack = (AttackSpec(kind="denial-of-receipt", start=1.0, period=0.2,
                         params={"victim": 1, "unit": 0, "n_packets": 12}),)
    # The undefended victim crawls home in ~2000s of simulated time; give
    # both runs headroom so the comparison is between completed runs.
    undefended = build_adversarial(_scenario(attacks=attack, max_time=3000.0))
    r_open = undefended.run()
    defended = build_adversarial(_scenario(
        attacks=attack, defense=DefenseConfig(rate_limit=True),
        max_time=3000.0))
    r_shut = defended.run()
    assert r_open.completed and r_shut.completed
    assert defended.trace.counters["defense_quarantine"] >= 1
    assert defended.trace.counters["defense_snack_rate_limited"] > 0
    # Battery drain plateaus: the served flood stops once quarantine bites.
    assert r_shut.counters["tx_data"] < r_open.counters["tx_data"]
    base_tx_open = link_accounting(undefended.log.events)[0][0]
    base_tx_shut = link_accounting(defended.log.events)[0][0]
    assert base_tx_shut < base_tx_open
    # The invariant holds: no quarantined neighbor was ever served.
    report = check_events(defended.log)
    assert report.checked["quarantine_respected"] > 0
    assert not report.of_invariant("quarantine_respected")


def test_replay_filter_drops_replayed_control():
    attack = (AttackSpec(kind="replay", start=1.0, period=0.3),)
    rig = build_adversarial(_scenario(
        attacks=attack, defense=DefenseConfig(replay_filter=True),
        max_time=2400.0))
    result = rig.run()
    assert result.completed
    assert rig.trace.counters["defense_replay_dropped"] > 0
    report = check_events(rig.log)
    assert not report.of_invariant("replay_never_rebuffered")


def test_attacker_crash_composes_with_fault_plan():
    """Satellite: a FaultPlan can kill an attacker mid-run; victims finish."""
    attack = (AttackSpec(kind="sybil-snack", start=1.0, period=0.3),)
    faults = (FaultEvent(10.0, FaultKind.NODE_CRASH, node=5),)  # the attacker
    rig = build_adversarial(_scenario(attacks=attack, faults=faults))
    result = rig.run()
    assert result.completed and result.images_ok
    attacker = rig.attackers[0]
    assert attacker.crashed
    sent_at_crash = attacker.sent
    rig.sim.run(until=rig.sim.now + 60.0)
    assert attacker.sent == sent_at_crash
