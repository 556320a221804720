//! Slotted CSMA/CA (802.11 DCF) simulator.
//!
//! The WiFi half of the paper's comparison: stations contend for the medium
//! with binary exponential backoff and carrier sensing. The simulator is
//! slot-accurate (9 µs slots) and supports an arbitrary *sensing graph*, so
//! hidden-terminal topologies (E6) are expressed by marking station pairs
//! that cannot hear each other. Collisions are judged at the access point:
//! any temporal overlap of two uplink transmissions destroys both (no
//! capture effect — conservative, and the standard Bianchi-model
//! assumption).
//!
//! Implemented: saturated and Poisson (CBR-ish) sources, per-station rate
//! selection from SNR, retry limits with frame drop, RTS/CTS omitted
//! deliberately (the paper's argument is about *replacing* carrier sensing
//! with out-of-band coordination, and RTS/CTS only partially mitigates
//! hidden terminals at a constant overhead cost — noted in DESIGN.md).
//! There is no NAV: stations defer on physical carrier sense only.
//!
//! Most slots change nothing but backoff counters: every station is either
//! counting down, frozen behind a busy medium, on air, or idle with an empty
//! queue. [`DcfSim::run`] therefore jumps over runs of such *quiet* slots in
//! one step (counters drop by the run length, busy airtime and Poisson
//! arrival accumulators advance exactly as slot-by-slot stepping would) and
//! steps one slot at a time only where a station draws a backoff, starts a
//! frame or finishes one. The result is bit-identical to stepping every
//! slot.

use dlte_phy::wifi::phy_rate_bps;
use dlte_sim::stats::jain_index;
use dlte_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// DCF timing and contention parameters (802.11n OFDM PHY defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DcfConfig {
    /// Slot time, µs.
    pub slot_us: f64,
    /// Short interframe space, µs.
    pub sifs_us: f64,
    /// DIFS, µs (SIFS + 2 slots).
    pub difs_us: f64,
    /// Minimum contention window (slots, power-of-two minus one).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Retransmission attempts before a frame is dropped.
    pub retry_limit: u32,
    /// MSDU payload per frame, bytes.
    pub payload_bytes: u32,
    /// PHY preamble + PLCP header, µs.
    pub preamble_us: f64,
    /// ACK frame duration, µs.
    pub ack_us: f64,
}

impl Default for DcfConfig {
    fn default() -> Self {
        DcfConfig {
            slot_us: 9.0,
            sifs_us: 16.0,
            difs_us: 34.0,
            cw_min: 15,
            cw_max: 1023,
            retry_limit: 7,
            payload_bytes: 1500,
            preamble_us: 40.0,
            ack_us: 44.0,
        }
    }
}

/// One contending station.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StationConfig {
    /// SNR of this station's link to the AP, dB (sets its PHY rate).
    pub snr_db: f64,
    /// Offered load, bits/s; `f64::INFINITY` = saturated.
    pub offered_bps: f64,
}

impl StationConfig {
    pub fn saturated(snr_db: f64) -> Self {
        StationConfig {
            snr_db,
            offered_bps: f64::INFINITY,
        }
    }
}

/// Per-station results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StationReport {
    pub id: usize,
    /// False if the station's SNR supports no rate at all.
    pub in_range: bool,
    pub goodput_bps: f64,
    pub attempts: u64,
    pub successes: u64,
    pub collisions: u64,
    pub drops: u64,
}

/// Whole-network results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DcfReport {
    pub stations: Vec<StationReport>,
    pub aggregate_goodput_bps: f64,
    pub jain_fairness: f64,
    /// Fraction of transmission attempts that collided.
    pub collision_rate: f64,
    /// Fraction of wall-clock time the AP's medium carried ≥1 transmission.
    pub airtime_busy_fraction: f64,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum StState {
    /// No frame queued.
    Idle,
    /// Counting down `backoff` idle slots.
    Contending { backoff: u32 },
    /// On air until `ends_slot` (exclusive).
    Transmitting { ends_slot: u64, collided: bool },
}

struct Station {
    config: StationConfig,
    state: StState,
    cw: u32,
    retries: u32,
    queue: u64, // frames waiting (excluding the one in flight)
    arrival_accum: f64,
    /// Frames arriving per slot (finite load only): the accumulator's
    /// per-slot increment.
    arrivals_per_slot: f64,
    duration_slots: u64,
    frame_bits: u64,
    in_range: bool,
    // stats
    attempts: u64,
    successes: u64,
    collisions: u64,
    drops: u64,
    delivered_bits: u64,
}

/// The DCF simulator.
pub struct DcfSim {
    config: DcfConfig,
    stations: Vec<Station>,
    /// `sense[i][j]` = station i hears station j's transmissions.
    sense: Vec<Vec<bool>>,
    rng: SimRng,
    slot: u64,
    busy_slots: u64,
    /// Simulated time covered by all `run` calls so far.
    elapsed: SimDuration,
}

impl DcfSim {
    /// Build a network where every station hears every other (no hidden
    /// terminals).
    pub fn fully_connected(config: DcfConfig, stations: Vec<StationConfig>, rng: SimRng) -> Self {
        let n = stations.len();
        Self::with_sensing(config, stations, vec![vec![true; n]; n], rng)
    }

    /// Build a network with an explicit sensing graph. `sense[i][j]` must be
    /// symmetric for physical plausibility (asserted in debug builds).
    pub fn with_sensing(
        config: DcfConfig,
        stations: Vec<StationConfig>,
        sense: Vec<Vec<bool>>,
        rng: SimRng,
    ) -> Self {
        let n = stations.len();
        assert_eq!(sense.len(), n, "sensing matrix shape");
        for row in &sense {
            assert_eq!(row.len(), n, "sensing matrix shape");
        }
        #[cfg(debug_assertions)]
        for (i, row) in sense.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                debug_assert_eq!(cell, sense[j][i], "sensing must be symmetric");
            }
        }
        let slot_s = config.slot_us * 1e-6;
        let stations = stations
            .into_iter()
            .map(|cfg| {
                let rate = phy_rate_bps(cfg.snr_db);
                let in_range = rate > 0.0;
                let frame_bits = cfg.payload_bits(config.payload_bytes);
                let duration_slots = if in_range {
                    let tx_us = config.preamble_us
                        + frame_bits as f64 / rate * 1e6
                        + config.sifs_us
                        + config.ack_us
                        + config.difs_us;
                    (tx_us / config.slot_us).ceil() as u64
                } else {
                    0
                };
                Station {
                    config: cfg,
                    state: StState::Idle,
                    cw: config.cw_min,
                    retries: 0,
                    queue: 0,
                    arrival_accum: 0.0,
                    arrivals_per_slot: cfg.offered_bps * slot_s / frame_bits as f64,
                    duration_slots,
                    frame_bits,
                    in_range,
                    attempts: 0,
                    successes: 0,
                    collisions: 0,
                    drops: 0,
                    delivered_bits: 0,
                }
            })
            .collect();
        DcfSim {
            config,
            stations,
            sense,
            rng,
            slot: 0,
            busy_slots: 0,
            elapsed: SimDuration::ZERO,
        }
    }

    /// Whether station `i` (not itself on air) hears nobody on `on_air`.
    fn medium_idle(&self, i: usize, on_air: &[usize]) -> bool {
        on_air.iter().all(|&j| j == i || !self.sense[i][j])
    }

    /// One slot of Poisson-approximated arrivals for a finite-load station.
    fn accrue_arrivals(st: &mut Station) {
        st.arrival_accum += st.arrivals_per_slot;
        while st.arrival_accum >= 1.0 {
            st.arrival_accum -= 1.0;
            st.queue += 1;
        }
    }

    fn draw_backoff(rng: &mut SimRng, cw: u32) -> u32 {
        rng.uniform_u64(0, cw as u64 + 1) as u32
    }

    /// Advance one slot.
    fn step_slot(&mut self) {
        let slot = self.slot;
        let n = self.stations.len();

        // 1. Frame arrivals (Poisson approximated per slot).
        for st in &mut self.stations {
            if st.in_range && st.config.offered_bps.is_finite() {
                Self::accrue_arrivals(st);
            }
        }

        // 2. Note who is on air *entering* this slot.
        let on_air: Vec<usize> = (0..n)
            .filter(|&i| matches!(self.stations[i].state, StState::Transmitting { ends_slot, .. } if ends_slot > slot))
            .collect();
        if !on_air.is_empty() {
            self.busy_slots += 1;
        }

        // 3. Idle stations with traffic enter contention; contenders sense.
        let mut starters: Vec<usize> = Vec::new();
        for i in 0..n {
            let medium_idle = self.medium_idle(i, &on_air);
            let st = &mut self.stations[i];
            match st.state {
                StState::Idle => {
                    let has_frame =
                        st.in_range && (st.config.offered_bps.is_infinite() || st.queue > 0);
                    if has_frame {
                        if st.config.offered_bps.is_finite() {
                            st.queue -= 1;
                        }
                        let b = Self::draw_backoff(&mut self.rng, st.cw);
                        st.state = StState::Contending { backoff: b };
                    }
                }
                StState::Contending { backoff } => {
                    if medium_idle {
                        if backoff == 0 {
                            starters.push(i);
                        } else {
                            st.state = StState::Contending {
                                backoff: backoff - 1,
                            };
                        }
                    }
                    // Busy medium freezes the counter (DIFS deferral folded
                    // into the frame duration, which includes DIFS).
                }
                StState::Transmitting { .. } => {}
            }
        }

        // 4. Start transmissions; mark collisions at the AP (which hears
        //    everything): overlap with anyone already on air, or ≥2 starters.
        let overlap_with_active = !on_air.is_empty();
        let simultaneous = starters.len() >= 2;
        for &i in &starters {
            let dur = self.stations[i].duration_slots;
            let collided = overlap_with_active || simultaneous;
            self.stations[i].state = StState::Transmitting {
                ends_slot: slot + dur,
                collided,
            };
            self.stations[i].attempts += 1;
            if collided {
                self.stations[i].collisions += 1;
            }
        }
        // A newly started transmission also corrupts anything already on air.
        if !starters.is_empty() {
            for &j in &on_air {
                let st = &mut self.stations[j];
                if let StState::Transmitting { collided, .. } = &mut st.state {
                    if !*collided {
                        *collided = true;
                        st.collisions += 1;
                    }
                }
            }
        }

        // 5. Complete transmissions ending at the next slot boundary.
        for i in 0..n {
            if let StState::Transmitting {
                ends_slot,
                collided,
            } = self.stations[i].state
            {
                if ends_slot <= slot + 1 {
                    let st = &mut self.stations[i];
                    if collided {
                        st.retries += 1;
                        if st.retries > self.config.retry_limit {
                            st.drops += 1;
                            st.retries = 0;
                            st.cw = self.config.cw_min;
                            st.state = StState::Idle;
                        } else {
                            st.cw = ((st.cw + 1) * 2 - 1).min(self.config.cw_max);
                            let b = Self::draw_backoff(&mut self.rng, st.cw);
                            st.state = StState::Contending { backoff: b };
                        }
                    } else {
                        st.successes += 1;
                        st.delivered_bits += st.frame_bits;
                        st.retries = 0;
                        st.cw = self.config.cw_min;
                        st.state = StState::Idle;
                    }
                }
            }
        }

        self.slot += 1;
    }

    /// Jump over the quiet slots from the current one, stopping at the
    /// first eventful slot or at `end`. A slot is quiet when no station
    /// draws a backoff, starts a frame or finishes one in it; across such a
    /// run the on-air set, and with it every station's view of the medium,
    /// is constant, so the run's effect is closed-form.
    fn skip_quiet_slots(&mut self, end: u64) {
        let slot = self.slot;
        let on_air: Vec<usize> = (0..self.stations.len())
            .filter(|&i| matches!(self.stations[i].state, StState::Transmitting { .. }))
            .collect();
        let mut quiet = end - slot;
        for (i, st) in self.stations.iter().enumerate() {
            match st.state {
                // Frames in flight always end after the current slot; the
                // last slot on air is the one that completes them.
                StState::Transmitting { ends_slot, .. } => quiet = quiet.min(ends_slot - 1 - slot),
                StState::Contending { backoff } if self.medium_idle(i, &on_air) => {
                    quiet = quiet.min(u64::from(backoff));
                }
                StState::Contending { .. } => {}
                StState::Idle => {
                    if st.in_range && (st.config.offered_bps.is_infinite() || st.queue > 0) {
                        return;
                    }
                }
            }
            if quiet == 0 {
                return;
            }
        }
        // An idle station with an empty queue wakes at its first arrival.
        for st in &self.stations {
            if st.state == StState::Idle && st.in_range && st.config.offered_bps.is_finite() {
                let mut accum = st.arrival_accum;
                for k in 0..quiet {
                    accum += st.arrivals_per_slot;
                    if accum >= 1.0 {
                        quiet = k;
                        break;
                    }
                }
            }
        }
        if quiet == 0 {
            return;
        }
        for st in &mut self.stations {
            if st.in_range && st.config.offered_bps.is_finite() {
                for _ in 0..quiet {
                    Self::accrue_arrivals(st);
                }
            }
        }
        if !on_air.is_empty() {
            self.busy_slots += quiet;
        }
        for i in 0..self.stations.len() {
            if let StState::Contending { backoff } = self.stations[i].state {
                if self.medium_idle(i, &on_air) {
                    // `quiet` ≤ this counter: it bounded the run above.
                    self.stations[i].state = StState::Contending {
                        backoff: backoff - quiet as u32,
                    };
                }
            }
        }
        self.slot += quiet;
    }

    /// Run for `duration` of simulated time and report.
    pub fn run(&mut self, duration: SimDuration) -> DcfReport {
        let slots = self.slots_in(duration);
        let end = self.slot + slots;
        while self.slot < end {
            self.skip_quiet_slots(end);
            if self.slot < end {
                self.step_slot();
            }
        }
        // One DCF slot = one unit of work for the run instrumentation.
        dlte_sim::report::credit(slots, duration);
        self.elapsed += duration;
        self.report()
    }

    /// Slots covered by `duration`, to the nearest slot.
    fn slots_in(&self, duration: SimDuration) -> u64 {
        (duration.as_secs_f64() / (self.config.slot_us * 1e-6)).round() as u64
    }

    /// Results over all the simulated time run so far.
    fn report(&self) -> DcfReport {
        let secs = self.elapsed.as_secs_f64().max(1e-12);
        let stations: Vec<StationReport> = self
            .stations
            .iter()
            .enumerate()
            .map(|(id, st)| StationReport {
                id,
                in_range: st.in_range,
                goodput_bps: st.delivered_bits as f64 / secs,
                attempts: st.attempts,
                successes: st.successes,
                collisions: st.collisions,
                drops: st.drops,
            })
            .collect();
        let rates: Vec<f64> = stations.iter().map(|s| s.goodput_bps).collect();
        let attempts: u64 = stations.iter().map(|s| s.attempts).sum();
        let collisions: u64 = stations.iter().map(|s| s.collisions).sum();
        DcfReport {
            aggregate_goodput_bps: rates.iter().sum(),
            jain_fairness: jain_index(&rates),
            collision_rate: if attempts > 0 {
                collisions as f64 / attempts as f64
            } else {
                0.0
            },
            airtime_busy_fraction: self.busy_slots as f64 / self.slot.max(1) as f64,
            stations,
        }
    }
}

impl StationConfig {
    fn payload_bits(&self, payload_bytes: u32) -> u64 {
        // MAC header + payload (28-byte MAC overhead folded in).
        (payload_bytes as u64 + 28) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(stations: Vec<StationConfig>) -> DcfSim {
        DcfSim::fully_connected(DcfConfig::default(), stations, SimRng::new(7))
    }

    #[test]
    fn single_saturated_station_reaches_mac_efficiency() {
        let mut s = sim(vec![StationConfig::saturated(30.0)]);
        let r = s.run(SimDuration::from_secs(2));
        // MCS7 PHY = 65 Mbit/s; DCF overhead (preamble/ACK/DIFS/backoff)
        // should leave roughly 55–70% goodput at 1500 B frames.
        let g = r.stations[0].goodput_bps;
        assert!((27e6..40e6).contains(&g), "goodput {g}");
        assert_eq!(r.collision_rate, 0.0, "one station cannot collide");
        assert!(r.airtime_busy_fraction > 0.7);
    }

    #[test]
    fn out_of_range_station_sends_nothing() {
        let mut s = sim(vec![StationConfig::saturated(-5.0)]);
        let r = s.run(SimDuration::from_secs(1));
        assert!(!r.stations[0].in_range);
        assert_eq!(r.stations[0].goodput_bps, 0.0);
        assert_eq!(r.stations[0].attempts, 0);
    }

    #[test]
    fn two_visible_stations_share_fairly() {
        let mut s = sim(vec![
            StationConfig::saturated(30.0),
            StationConfig::saturated(30.0),
        ]);
        let r = s.run(SimDuration::from_secs(2));
        assert!(r.jain_fairness > 0.98, "jain {}", r.jain_fairness);
        assert!(r.collision_rate < 0.15, "visible stations rarely collide");
        // Aggregate stays near the single-station figure (contention costs a
        // little).
        assert!(r.aggregate_goodput_bps > 30e6);
    }

    #[test]
    fn contention_overhead_grows_with_stations() {
        let agg = |n: usize| {
            let mut s = sim((0..n).map(|_| StationConfig::saturated(30.0)).collect());
            s.run(SimDuration::from_secs(1)).aggregate_goodput_bps
        };
        let one = agg(1);
        let twenty = agg(20);
        assert!(
            twenty < one,
            "20 stations {twenty} should underperform 1 station {one}"
        );
    }

    #[test]
    fn collision_rate_grows_with_stations() {
        let rate = |n: usize| {
            let mut s = sim((0..n).map(|_| StationConfig::saturated(30.0)).collect());
            s.run(SimDuration::from_secs(1)).collision_rate
        };
        assert!(rate(2) < rate(10));
        assert!(rate(10) < rate(40));
    }

    #[test]
    fn hidden_terminals_collapse_goodput_paper_e6() {
        // Two stations that cannot hear each other, both saturated: their
        // transmissions overlap almost always (the classic hidden-terminal
        // catastrophe).
        let cfg = DcfConfig::default();
        let stations = vec![
            StationConfig::saturated(25.0),
            StationConfig::saturated(25.0),
        ];
        let mut hidden_sense = vec![vec![true; 2]; 2];
        hidden_sense[0][1] = false;
        hidden_sense[1][0] = false;
        let mut hidden = DcfSim::with_sensing(cfg, stations.clone(), hidden_sense, SimRng::new(9));
        let mut visible = DcfSim::fully_connected(cfg, stations, SimRng::new(9));
        let rh = hidden.run(SimDuration::from_secs(2));
        let rv = visible.run(SimDuration::from_secs(2));
        // Binary exponential backoff is hidden-terminal CSMA's escape
        // valve: after repeated collisions the contention windows balloon
        // past the frame length, so the per-attempt collision rate settles
        // near 1/3 rather than the naive near-1. The goodput and drop
        // damage remains substantial.
        assert!(
            rh.collision_rate > 3.0 * rv.collision_rate,
            "hidden collision rate {} vs visible {}",
            rh.collision_rate,
            rv.collision_rate
        );
        assert!(
            rh.aggregate_goodput_bps < 0.75 * rv.aggregate_goodput_bps,
            "hidden {} vs visible {}",
            rh.aggregate_goodput_bps,
            rv.aggregate_goodput_bps
        );
        assert!(rh.stations[0].drops > 0, "hidden pairs drop frames");
    }

    #[test]
    fn unsaturated_station_gets_its_offered_load() {
        let mut s = sim(vec![StationConfig {
            snr_db: 30.0,
            offered_bps: 5e6,
        }]);
        let r = s.run(SimDuration::from_secs(2));
        let g = r.stations[0].goodput_bps;
        // Delivered ≈ offered (including the 28-byte MAC header bonus).
        assert!((g / 5e6 - 1.0).abs() < 0.1, "goodput {g}");
        assert!(r.airtime_busy_fraction < 0.25);
    }

    #[test]
    fn slow_station_drags_airtime_anomaly() {
        // The famous 802.11 performance anomaly: one slow station reduces
        // the fast station's goodput far below half its solo rate, because
        // DCF shares *frames*, not airtime.
        let mut both_fast = sim(vec![
            StationConfig::saturated(30.0),
            StationConfig::saturated(30.0),
        ]);
        let mut mixed = sim(vec![
            StationConfig::saturated(30.0),
            StationConfig::saturated(5.0), // MCS0 at 6.5 Mbit/s
        ]);
        let rf = both_fast.run(SimDuration::from_secs(2));
        let rm = mixed.run(SimDuration::from_secs(2));
        let fast_with_fast = rf.stations[0].goodput_bps;
        let fast_with_slow = rm.stations[0].goodput_bps;
        assert!(
            fast_with_slow < 0.5 * fast_with_fast,
            "anomaly absent: {fast_with_slow} vs {fast_with_fast}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut s = DcfSim::fully_connected(
                DcfConfig::default(),
                vec![StationConfig::saturated(20.0); 5],
                SimRng::new(seed),
            );
            s.run(SimDuration::from_millis(500)).aggregate_goodput_bps
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn two_runs_report_like_one_run_of_their_sum() {
        let stations = vec![StationConfig::saturated(30.0); 2];
        let mut split = sim(stations.clone());
        split.run(SimDuration::from_secs(1));
        let second = split.run(SimDuration::from_secs(1));
        let whole = sim(stations).run(SimDuration::from_secs(2));
        assert_eq!(format!("{second:?}"), format!("{whole:?}"));
    }

    impl DcfSim {
        /// The reference the quiet-slot jump must reproduce: every slot
        /// stepped in turn.
        fn run_slot_by_slot(&mut self, duration: SimDuration) -> DcfReport {
            for _ in 0..self.slots_in(duration) {
                self.step_slot();
            }
            self.elapsed += duration;
            self.report()
        }

        /// Every counter of the simulator and its report, floats as bits.
        fn fingerprint(&self, r: &DcfReport) -> Vec<u64> {
            let mut v = vec![self.slot, self.busy_slots];
            for st in &self.stations {
                let (tag, a, b) = match st.state {
                    StState::Idle => (0, 0, 0),
                    StState::Contending { backoff } => (1, u64::from(backoff), 0),
                    StState::Transmitting {
                        ends_slot,
                        collided,
                    } => (2, ends_slot, collided as u64),
                };
                v.extend([tag, a, b, u64::from(st.cw), u64::from(st.retries), st.queue]);
                v.extend([st.arrival_accum.to_bits(), st.delivered_bits]);
            }
            for s in &r.stations {
                v.extend([s.in_range as u64, s.goodput_bps.to_bits(), s.attempts]);
                v.extend([s.successes, s.collisions, s.drops]);
            }
            v.extend([
                r.aggregate_goodput_bps.to_bits(),
                r.jain_fairness.to_bits(),
                r.collision_rate.to_bits(),
                r.airtime_busy_fraction.to_bits(),
            ]);
            v
        }
    }

    use proptest::prelude::*;

    /// A station below the MCS0 threshold (out of range) about one time in
    /// eight; saturated or finite load half and half.
    fn arb_station() -> impl Strategy<Value = StationConfig> {
        let load = prop_oneof![Just(f64::INFINITY), 50e3f64..30e6];
        (-5.0f64..35.0, load).prop_map(|(snr_db, offered_bps)| StationConfig {
            snr_db,
            offered_bps,
        })
    }

    proptest! {
        /// Quiet-slot jumping is bit-identical to stepping every slot:
        /// random station counts, loads, SNRs, symmetric sensing graphs
        /// (hidden pairs about one in four), seeds and durations. Two runs
        /// back to back, so a diverging RNG draw in the first shows up in
        /// the second.
        #[test]
        fn quiet_slot_jumps_match_slot_by_slot(
            stations in prop::collection::vec(arb_station(), 1..=12),
            hears in prop::collection::vec(0u8..4, 144),
            seed in any::<u64>(),
            first_us in 1u64..120_000,
            second_us in 1u64..120_000,
        ) {
            let n = stations.len();
            let sense: Vec<Vec<bool>> = (0..n)
                .map(|i| (0..n).map(|j| hears[i.min(j) * 12 + i.max(j)] != 0).collect())
                .collect();
            let build = || {
                DcfSim::with_sensing(
                    DcfConfig::default(),
                    stations.clone(),
                    sense.clone(),
                    SimRng::new(seed),
                )
            };
            let (mut jumped, mut stepped) = (build(), build());
            for us in [first_us, second_us] {
                let d = SimDuration::from_micros(us);
                let (a, b) = (jumped.run(d), stepped.run_slot_by_slot(d));
                prop_assert_eq!(jumped.fingerprint(&a), stepped.fingerprint(&b));
            }
        }
    }
}
