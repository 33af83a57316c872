"""Unit tests of the packet-level congestion-control algorithms."""

from __future__ import annotations

import math
import random

import pytest

from repro.emulation.cca import bbr1, create_packet_cca
from repro.emulation.cca.base import LossEvent
from repro.emulation.cca.bbr1 import Bbr1Packet
from repro.emulation.cca.bbr2 import Bbr2Packet
from repro.emulation.cca.cubic import CubicPacket
from repro.emulation.cca.reno import RenoPacket


def ack(cca, now=1.0, rtt=0.03, rate=1000.0, inflight=10) -> None:
    """Acknowledge one packet to ``cca`` (the sender's only ACK call)."""
    cca.on_ack(now, rtt, rate, inflight)


def loss(now=1.0, num=1, inflight=10, highest=100, seqs=(50,)) -> LossEvent:
    return LossEvent(
        now=now, num_lost=num, inflight=inflight, highest_seq_sent=highest, lost_seqs=seqs
    )


class TestFactory:
    @pytest.mark.parametrize("name", ["reno", "cubic", "bbr1", "bbr2"])
    def test_create(self, name):
        cca = create_packet_cca(name, random.Random(0), initial_rate_pps=1000.0)
        assert cca.name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            create_packet_cca("vegas", random.Random(0), 1000.0)


class TestRenoPacket:
    def test_slow_start_doubles_per_window(self):
        reno = RenoPacket(initial_cwnd_pkts=10.0)
        for _ in range(10):
            ack(reno)
        assert reno.cwnd_pkts == pytest.approx(20.0)

    def test_congestion_avoidance_adds_one_per_window(self):
        reno = RenoPacket(initial_cwnd_pkts=10.0, ssthresh_pkts=5.0)
        start = reno.cwnd_pkts
        for _ in range(10):
            ack(reno)
        assert reno.cwnd_pkts == pytest.approx(start + 1.0, rel=0.05)

    def test_loss_halves_window_once_per_episode(self):
        reno = RenoPacket(initial_cwnd_pkts=100.0)
        reno.on_loss(loss(seqs=(10,), highest=200))
        assert reno.cwnd_pkts == pytest.approx(50.0)
        # A second loss from the same window (seq below the recovery marker)
        # must not halve the window again.
        reno.on_loss(loss(seqs=(20,), highest=210))
        assert reno.cwnd_pkts == pytest.approx(50.0)

    def test_new_episode_halves_again(self):
        reno = RenoPacket(initial_cwnd_pkts=100.0)
        reno.on_loss(loss(seqs=(10,), highest=200))
        reno.on_loss(loss(seqs=(250,), highest=300))
        assert reno.cwnd_pkts == pytest.approx(25.0)

    def test_timeout_collapses_window(self):
        reno = RenoPacket(initial_cwnd_pkts=64.0)
        reno.on_timeout(now=1.0)
        assert reno.cwnd_pkts == 1.0
        assert reno.ssthresh_pkts == pytest.approx(32.0)

    def test_unpaced(self):
        assert RenoPacket().pacing_rate_pps == math.inf

    def test_window_floor(self):
        reno = RenoPacket(initial_cwnd_pkts=2.0)
        reno.on_loss(loss(seqs=(1,), highest=5))
        assert reno.window_limit() >= 1.0


class TestCubicPacket:
    def test_slow_start_growth(self):
        cubic = CubicPacket(initial_cwnd_pkts=10.0)
        for _ in range(10):
            ack(cubic)
        assert cubic.cwnd_pkts == pytest.approx(20.0)

    def test_loss_applies_beta(self):
        cubic = CubicPacket(initial_cwnd_pkts=100.0)
        cubic.on_loss(loss(seqs=(10,), highest=100))
        assert cubic.cwnd_pkts == pytest.approx(70.0)
        assert cubic.w_max == pytest.approx(100.0)

    def test_window_recovers_towards_wmax(self):
        cubic = CubicPacket(initial_cwnd_pkts=100.0)
        cubic.on_loss(loss(now=0.0, seqs=(10,), highest=100))
        # Feed ACKs over simulated time; the cubic function must grow the
        # window back towards (and beyond) w_max.
        for step in range(400):
            ack(cubic, now=0.1 * step)
        assert cubic.cwnd_pkts > 95.0

    def test_duplicate_loss_in_same_window_ignored(self):
        cubic = CubicPacket(initial_cwnd_pkts=100.0)
        cubic.on_loss(loss(seqs=(10,), highest=100))
        cubic.on_loss(loss(seqs=(20,), highest=105))
        assert cubic.cwnd_pkts == pytest.approx(70.0)

    def test_timeout(self):
        cubic = CubicPacket(initial_cwnd_pkts=80.0)
        cubic.on_timeout(now=2.0)
        assert cubic.cwnd_pkts == 1.0


class TestBbr1Packet:
    def make(self) -> Bbr1Packet:
        return Bbr1Packet(rng=random.Random(3), initial_rate_pps=1000.0)

    def test_startup_gain_applied(self):
        bbr = self.make()
        assert bbr.state == "startup"
        ack(bbr, rate=2000.0)
        assert bbr.pacing_rate_pps == pytest.approx(2.885 * bbr.btlbw_pps, rel=1e-6)

    def test_btlbw_is_windowed_max(self):
        bbr = self.make()
        ack(bbr, rate=500.0)
        ack(bbr, rate=2000.0)
        ack(bbr, rate=800.0)
        assert bbr.btlbw_pps == pytest.approx(2000.0)

    def test_rtprop_is_minimum(self):
        bbr = self.make()
        ack(bbr, rtt=0.05)
        ack(bbr, rtt=0.03)
        ack(bbr, rtt=0.08)
        assert bbr.rtprop_s == pytest.approx(0.03)

    def test_loss_is_ignored(self):
        bbr = self.make()
        ack(bbr, rate=2000.0)
        before = (bbr.cwnd_pkts, bbr.pacing_rate_pps)
        bbr.on_loss(loss(num=50))
        assert (bbr.cwnd_pkts, bbr.pacing_rate_pps) == before

    def test_exits_startup_when_bandwidth_plateaus(self):
        bbr = self.make()
        now = 0.0
        for round_idx in range(20):
            for _ in range(10):
                now += 0.003
                ack(bbr, now=now, rate=5000.0, inflight=5)
            if bbr.state != "startup":
                break
        assert bbr.state in ("drain", "probe_bw")

    def test_probe_rtt_after_10s_without_new_minimum(self):
        bbr = self.make()
        ack(bbr, now=0.0, rtt=0.03, rate=5000.0)
        ack(bbr, now=10.5, rtt=0.05, rate=5000.0)
        assert bbr.state == "probe_rtt"
        assert bbr.cwnd_pkts == pytest.approx(4.0)

    def test_probe_bw_cycles_through_gains(self):
        bbr = self.make()
        bbr.state = "probe_bw"
        bbr.rtprop_s = 0.01
        bbr._rtprop_valid = True
        bbr._rtprop_stamp = 0.0
        seen_gains = set()
        now = 0.0
        for _ in range(200):
            now += 0.005
            ack(bbr, now=now, rtt=0.01, rate=5000.0)
            seen_gains.add(round(bbr.pacing_gain, 3))
        assert 1.25 in seen_gains
        assert 0.75 in seen_gains
        assert 1.0 in seen_gains


class TestBbr2Packet:
    def make(self) -> Bbr2Packet:
        return Bbr2Packet(rng=random.Random(3), initial_rate_pps=1000.0)

    def test_starts_in_startup(self):
        bbr = self.make()
        assert bbr.state == "startup"

    def test_cruise_reached_after_drain(self):
        bbr = self.make()
        now = 0.0
        for _ in range(30):
            for _ in range(10):
                now += 0.003
                ack(bbr, now=now, rate=5000.0, inflight=3)
            if bbr.state == "cruise":
                break
        assert bbr.state in ("cruise", "drain")

    def test_cruise_loss_sets_inflight_lo(self):
        bbr = self.make()
        bbr.state = "cruise"
        bbr.cwnd_pkts = 100.0
        bbr.on_loss(loss(num=2))
        assert bbr.inflight_lo == pytest.approx(70.0)

    def test_repeated_cruise_loss_decays_inflight_lo(self):
        bbr = self.make()
        bbr.state = "cruise"
        bbr.cwnd_pkts = 100.0
        bbr.on_loss(loss(num=1))
        bbr.on_loss(loss(num=1))
        assert bbr.inflight_lo == pytest.approx(49.0)

    def test_up_phase_loss_cuts_inflight_hi_and_enters_down(self):
        bbr = self.make()
        bbr.state = "up"
        bbr.inflight_hi = 200.0
        bbr._round_delivered = 10
        bbr._round_lost = 0
        bbr.on_loss(loss(num=5, inflight=150))
        assert bbr.state == "down"
        assert bbr.inflight_hi == pytest.approx(140.0)

    def test_probe_rtt_cwnd_is_half_bdp(self):
        bbr = self.make()
        ack(bbr, now=0.0, rtt=0.03, rate=5000.0)
        ack(bbr, now=10.5, rtt=0.05, rate=5000.0)
        assert bbr.state == "probe_rtt"
        assert bbr.cwnd_pkts == pytest.approx(max(4.0, bbr.bdp_pkts() / 2.0))

    def test_headroom_applied_in_cruise(self):
        bbr = self.make()
        bbr.state = "cruise"
        bbr.inflight_hi = 100.0
        bbr.btlbw_pps = 1e6  # make the 2*BDP cap irrelevant
        bbr.rtprop_s = 0.1
        bbr._set_controls()
        assert bbr.cwnd_pkts == pytest.approx(85.0)

    def test_timeout_resets_short_term_bound(self):
        bbr = self.make()
        bbr.on_timeout(now=1.0)
        assert bbr.inflight_lo == pytest.approx(4.0)


class TestBaseProtocol:
    def test_window_limit_floor(self):
        reno = RenoPacket(initial_cwnd_pkts=1.0)
        reno.cwnd_pkts = 0.2
        assert reno.window_limit() == 1.0


class _Bbr1Oracle(Bbr1Packet):
    """BBRv1 as its stage-by-stage helper pipeline: the test oracle.

    ``Bbr1Packet.on_ack`` runs these stages as one inlined pass; this
    readable formulation stays here only to pin it.
    """

    def on_ack(self, now, rtt, delivery_rate, inflight):
        round_start = self._update_round(inflight)
        self._update_btlbw(delivery_rate)
        self._update_rtprop(now, rtt)
        self._check_full_pipe(round_start)
        self._maybe_enter_probe_rtt(now)
        self._apply_state(now, inflight)
        self._set_controls()

    def _update_round(self, inflight):
        self._delivered += 1
        if self._delivered >= self._next_round_delivered:
            self._round += 1
            self._next_round_delivered = self._delivered + inflight + 1
            return True
        return False

    def _update_btlbw(self, delivery_rate):
        if delivery_rate <= 0:
            return
        samples = self._bw_samples
        while samples and samples[-1][1] <= delivery_rate:
            samples.pop()
        samples.append((self._round, delivery_rate))
        horizon = self._round - bbr1.BW_WINDOW_ROUNDS
        while samples[0][0] < horizon:
            samples.popleft()
        self.btlbw_pps = samples[0][1]

    def _update_rtprop(self, now, rtt):
        if not self._rtprop_valid or rtt <= self.rtprop_s:
            self.rtprop_s = rtt
            self._rtprop_stamp = now
            self._rtprop_valid = True

    def _check_full_pipe(self, round_start):
        if not round_start or self.state != "startup":
            return
        if self.btlbw_pps >= self._full_bw * bbr1.FULL_BW_THRESHOLD:
            self._full_bw = self.btlbw_pps
            self._full_bw_count = 0
            return
        self._full_bw_count += 1
        if self._full_bw_count >= bbr1.FULL_BW_ROUNDS:
            self.state = "drain"

    def _advance_cycle(self, now):
        if now - self._cycle_stamp > self.rtprop_s:
            self._cycle_index = (self._cycle_index + 1) % len(bbr1.PROBE_BW_GAINS)
            self._cycle_stamp = now

    def _maybe_enter_probe_rtt(self, now):
        if self.state == "probe_rtt":
            if self._probe_rtt_done_stamp is None:
                self._probe_rtt_done_stamp = now + bbr1.PROBE_RTT_DURATION_S
            elif now >= self._probe_rtt_done_stamp:
                self._rtprop_stamp = now
                self._probe_rtt_done_stamp = None
                self.state = "probe_bw"
                self._cycle_stamp = now
            return
        if (
            self._rtprop_valid
            and now - self._rtprop_stamp > bbr1.PROBE_RTT_INTERVAL_S
            and self.state in ("probe_bw", "startup")
        ):
            self.state = "probe_rtt"
            self._probe_rtt_done_stamp = None

    def _apply_state(self, now, inflight):
        if self.state == "startup":
            self.pacing_gain = bbr1.STARTUP_GAIN
            self.cwnd_gain = bbr1.STARTUP_GAIN
        elif self.state == "drain":
            self.pacing_gain = bbr1.DRAIN_GAIN
            self.cwnd_gain = bbr1.STARTUP_GAIN
            if inflight <= self.bdp_pkts():
                self.state = "probe_bw"
                self._cycle_stamp = now
        if self.state == "probe_bw":
            self._advance_cycle(now)
            self.pacing_gain = bbr1.PROBE_BW_GAINS[self._cycle_index]
            self.cwnd_gain = bbr1.CWND_GAIN
        if self.state == "probe_rtt":
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0


class TestBbr1MatchesOracle:
    """``Bbr1Packet.on_ack`` stays in lockstep with the helper pipeline.

    A long, state-transition-rich stream of per-packet ACKs drives both
    formulations, which are compared field for field after every ACK, so
    an edit to either side cannot silently diverge.
    """

    STATE_FIELDS = (
        "state",
        "cwnd_pkts",
        "pacing_rate_pps",
        "pacing_gain",
        "cwnd_gain",
        "btlbw_pps",
        "rtprop_s",
        "_round",
        "_delivered",
        "_full_bw_count",
        "_cycle_index",
    )

    @staticmethod
    def _ack_stream():
        # A stream long and varied enough to visit startup, drain,
        # probe_bw (with cycle advances) and probe_rtt (> 10 s without a
        # new RTT minimum), including idle rates and RTT inflation.
        rng = random.Random(42)
        now = 0.0
        for step in range(2200):
            now += 0.01
            if step < 300:
                rtt = 0.03 + 0.02 * rng.random()
            else:
                # Flat, inflated RTT: no new minimum, so PROBE_RTT fires
                # once 10 s pass without refreshing the RTprop window.
                rtt = 0.05
            rate = max(0.0, 8000.0 + 4000.0 * rng.random() - (3000.0 if step % 97 == 0 else 0.0))
            inflight = rng.randrange(1, 400)
            yield now, rtt, rate, inflight

    def test_on_ack_matches_helper_pipeline(self):
        bbr = Bbr1Packet(rng=random.Random(7), initial_rate_pps=1000.0)
        oracle = _Bbr1Oracle(rng=random.Random(7), initial_rate_pps=1000.0)
        states = set()
        for now, rtt, rate, inflight in self._ack_stream():
            bbr.on_ack(now, rtt, rate, inflight)
            oracle.on_ack(now, rtt, rate, inflight)
            for field in self.STATE_FIELDS:
                assert getattr(bbr, field) == getattr(oracle, field), field
            states.add(bbr.state)
        # The stream must actually have exercised the state machine (drain
        # usually transits to probe_bw within a single acknowledgement, so
        # it is not required to be observable between samples).
        assert {"startup", "probe_bw", "probe_rtt"} <= states
