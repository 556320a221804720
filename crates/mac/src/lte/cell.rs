//! A subframe-granularity single-cell simulator.
//!
//! Composes the PHY models (link budget, shadowing, CQI, HARQ) with the MAC
//! (grid, scheduler, timing advance) and runs TTI-by-TTI. This is the
//! workhorse behind experiments E1–E5 and E7: the range sweeps run one cell
//! at increasing UE distance; the fairness and cooperation experiments run
//! several cells whose time/frequency shares and interference couplings are
//! set by the X2 coordination layer above.
//!
//! The cell is direction-explicit: a downlink cell transmits eNodeB → UE; an
//! uplink cell UE → eNodeB (where SC-FDMA and timing advance matter).
//!
//! Link abstraction is per UE, not per PRB: with wideband CQI every PRB a UE
//! holds sees the same channel. The terms that never change over a run —
//! received power at the UE's distance, the noise-plus-interference floor
//! and the uplink ISI penalty — are computed once in [`CellSim::new`]; each
//! TTI only samples fading and subtracts. The SINR's CQI, bits per PRB and
//! HARQ efficiency are re-evaluated only when the SINR differs from the
//! UE's previous TTI (never, with shadowing off), and every allocation the
//! scheduler hands out reads them from there.

use super::grid::PrbGrid;
use super::scheduler::{SchedUe, SchedulerKind, TtiScheduler};
use super::timing_advance::{PrachFormat, TimingAdvance};
use dlte_obs::Event;
use dlte_phy::fading::{LinkShadowing, ShadowingConfig};
use dlte_phy::harq::{HarqConfig, HarqProcessModel};
use dlte_phy::link::{LinkBudget, RadioConfig};
use dlte_phy::mcs::{select_cqi, transport_block_bits, CqiEntry};
use dlte_phy::propagation::PathLossModel;
use dlte_phy::units::dbm_to_mw;
use dlte_phy::waveform::LteBandwidth;
use dlte_sim::stats::jain_index;
use dlte_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Node id stamped on a cell's trace events: a `CellSim` is one cell.
const TRACE_NODE: u64 = 0;

/// Link direction of the simulated cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Direction {
    Downlink,
    Uplink,
}

/// Traffic model of one UE.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Traffic {
    /// Always has data — saturation workloads.
    FullBuffer,
    /// Constant bit rate source, bits/s.
    Cbr { bps: f64 },
}

/// Cell-wide configuration.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Carrier frequency, MHz.
    pub freq_mhz: f64,
    /// Channel bandwidth (one of the six E-UTRA configs).
    pub bandwidth: LteBandwidth,
    pub direction: Direction,
    pub scheduler: SchedulerKind,
    pub harq: HarqConfig,
    /// eNodeB radio.
    pub enb: RadioConfig,
    pub path_loss: PathLossModel,
    pub shadowing: ShadowingConfig,
    pub prach: PrachFormat,
    /// Timing advance enabled (the E4 switch).
    pub timing_advance: bool,
    /// PRBs reserved for a peer AP by a frequency-domain fair-share
    /// agreement (0 = whole grid).
    pub masked_prb: u32,
    /// Fraction of subframes this cell may use (time-domain fair share;
    /// 1.0 = all). Implemented as a deterministic TTI pattern.
    pub tdm_share: f64,
    /// EWMA weight for the PF average-rate tracker.
    pub pf_alpha: f64,
}

impl CellConfig {
    /// The paper's prototype cell: band 5, 10 MHz, PF scheduler, rural
    /// propagation, TA on, full grid.
    pub fn rural_default() -> Self {
        CellConfig {
            freq_mhz: 881.5,
            bandwidth: LteBandwidth::by_mhz(10.0).expect("10 MHz in table"),
            direction: Direction::Downlink,
            scheduler: SchedulerKind::ProportionalFair,
            harq: HarqConfig::default(),
            enb: RadioConfig::rural_enodeb(),
            path_loss: PathLossModel::rural_macro(),
            shadowing: ShadowingConfig::disabled(),
            prach: PrachFormat::Format1,
            timing_advance: true,
            masked_prb: 0,
            tdm_share: 1.0,
            pf_alpha: 0.01,
        }
    }
}

/// Per-UE configuration.
#[derive(Clone, Debug)]
pub struct UeConfig {
    pub dist_km: f64,
    pub radio: RadioConfig,
    pub traffic: Traffic,
    /// Received co-channel interference power at this UE (downlink) or at
    /// the eNodeB from this UE's direction (uplink), dBm.
    /// `f64::NEG_INFINITY` = none.
    pub interference_dbm: f64,
}

impl UeConfig {
    pub fn at_km(dist_km: f64) -> Self {
        UeConfig {
            dist_km,
            radio: RadioConfig::lte_handset(),
            traffic: Traffic::FullBuffer,
            interference_dbm: f64::NEG_INFINITY,
        }
    }
}

/// Result for one UE after a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UeReport {
    pub id: usize,
    /// False if the UE could not attach (out of PRACH/TA range).
    pub served: bool,
    pub goodput_bps: f64,
    pub mean_sinr_db: f64,
    pub mean_cqi: f64,
    /// Fraction of TTIs in which this UE received an allocation.
    pub scheduled_fraction: f64,
    pub delivered_bits: u64,
}

/// Result for the whole cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellReport {
    pub ues: Vec<UeReport>,
    pub aggregate_goodput_bps: f64,
    pub jain_fairness: f64,
    pub mean_grid_utilization: f64,
    pub duration: SimDuration,
}

/// A UE's link quality at one SINR: what the scheduler and the delivery
/// model read for every PRB the UE is granted.
#[derive(Clone, Copy)]
struct LinkQuality {
    sinr_db: f64,
    /// `None` = out of range at this SINR.
    cqi: Option<&'static CqiEntry>,
    bits_per_prb: f64,
    /// Expected HARQ efficiency (delivered / transmitted blocks).
    harq_efficiency: f64,
}

impl LinkQuality {
    fn at(sinr_db: f64, harq: &HarqProcessModel) -> Self {
        let cqi = select_cqi(sinr_db);
        LinkQuality {
            sinr_db,
            cqi,
            bits_per_prb: cqi.map_or(0.0, |c| transport_block_bits(c, 1) as f64),
            harq_efficiency: cqi.map_or(0.0, |c| harq.stats(sinr_db, c).efficiency),
        }
    }
}

struct UeState {
    config: UeConfig,
    shadowing: LinkShadowing,
    served: bool,
    /// Received power at the UE's distance before fading, dBm.
    rx_power_dbm: f64,
    /// `10·log10(noise + interference)` at the receiver, dB(mW).
    floor_db: f64,
    /// Uplink timing-advance residual self-interference, dB (0 downlink).
    isi_penalty_db: f64,
    /// Link quality at the SINR of the last TTI this UE was evaluated in.
    link: LinkQuality,
    backlog_bits: f64,
    delivered_bits: u64,
    avg_rate: f64, // bits per TTI, EWMA
    sinr_sum: f64,
    cqi_sum: f64,
    sinr_samples: u64,
    scheduled_ttis: u64,
}

/// The single-cell simulator.
pub struct CellSim {
    config: CellConfig,
    ues: Vec<UeState>,
    scheduler: Box<dyn TtiScheduler>,
    grid: PrbGrid,
    harq: HarqProcessModel,
    tti: u64,
    util_sum: f64,
    util_ttis: u64,
    /// Simulated time covered by all `run` calls so far.
    elapsed: SimDuration,
    /// Dedicated RNG for trace-only sampled HARQ outcomes — never consumed
    /// when tracing is off, so results are identical either way.
    harq_trace_rng: SimRng,
}

/// Link budget toward `ue` for the cell's direction.
fn budget_for(config: &CellConfig, ue: &UeConfig) -> LinkBudget {
    let (tx, rx) = match config.direction {
        Direction::Downlink => (config.enb, ue.radio),
        Direction::Uplink => (ue.radio, config.enb),
    };
    LinkBudget {
        tx,
        rx,
        model: config.path_loss,
        freq_mhz: config.freq_mhz,
        bandwidth_hz: config.bandwidth.occupied_hz(),
    }
}

impl CellSim {
    pub fn new(config: CellConfig, ues: Vec<UeConfig>, rng: &SimRng) -> Self {
        let harq = HarqProcessModel::new(config.harq);
        let ue_states = ues
            .into_iter()
            .enumerate()
            .map(|(i, ue)| {
                let ta = if config.timing_advance {
                    TimingAdvance::for_distance(ue.dist_km).unwrap_or(TimingAdvance { steps: None })
                } else {
                    TimingAdvance::disabled()
                };
                let served = if config.timing_advance {
                    TimingAdvance::serveable(ue.dist_km, config.prach, true)
                } else {
                    true
                };
                let budget = budget_for(&config, &ue);
                let noise_mw = dbm_to_mw(budget.noise_floor_dbm());
                let interference_mw = if ue.interference_dbm.is_finite() {
                    dbm_to_mw(ue.interference_dbm)
                } else {
                    0.0
                };
                // Misaligned uplink arrivals self-interfere (E4). Downlink
                // is always aligned (single transmitter).
                let isi_penalty_db = match config.direction {
                    Direction::Uplink => ta.isi_penalty_db(ue.dist_km),
                    Direction::Downlink => 0.0,
                };
                UeState {
                    shadowing: LinkShadowing::new(
                        config.shadowing,
                        rng.fork_idx("ue-shadow", i as u64),
                    ),
                    served,
                    rx_power_dbm: budget.rx_power_dbm(ue.dist_km),
                    floor_db: 10.0 * (noise_mw + interference_mw).log10(),
                    isi_penalty_db,
                    // NaN equals no SINR, so the first TTI evaluates.
                    link: LinkQuality::at(f64::NAN, &harq),
                    backlog_bits: 0.0,
                    delivered_bits: 0,
                    avg_rate: 0.0,
                    sinr_sum: 0.0,
                    cqi_sum: 0.0,
                    sinr_samples: 0,
                    scheduled_ttis: 0,
                    config: ue,
                }
            })
            .collect();
        let grid = PrbGrid::new(config.bandwidth.n_prb, config.masked_prb);
        CellSim {
            scheduler: config.scheduler.build(),
            harq,
            grid,
            ues: ue_states,
            config,
            tti: 0,
            util_sum: 0.0,
            util_ttis: 0,
            elapsed: SimDuration::ZERO,
            harq_trace_rng: rng.fork("harq-trace"),
        }
    }

    /// SINR for UE `i` at `now`: the fixed link terms less this TTI's
    /// fading.
    fn sinr_db(&mut self, i: usize, now: SimTime) -> f64 {
        let fading = self.ues[i].shadowing.sample_db(now);
        let ue = &self.ues[i];
        // Subtracting the downlink's +0.0 penalty leaves every SINR as is.
        ue.rx_power_dbm - fading - ue.floor_db - ue.isi_penalty_db
    }

    /// Whether this cell owns TTI `tti` under its time-domain share.
    /// Deterministic interleaving: cell owns the TTIs whose fractional
    /// position wraps below `share` (an exact Bresenham pattern).
    fn owns_tti(&self, tti: u64) -> bool {
        let share = self.config.tdm_share.clamp(0.0, 1.0);
        if share >= 1.0 {
            return true;
        }
        if share <= 0.0 {
            return false;
        }
        // Own floor((t+1)·share) > floor(t·share).
        ((tti + 1) as f64 * share).floor() > (tti as f64 * share).floor()
    }

    /// Run one TTI (1 ms).
    pub fn step_tti(&mut self) {
        let now = SimTime::from_millis(self.tti);
        // Accrue CBR traffic regardless of ownership.
        for ue in &mut self.ues {
            if let Traffic::Cbr { bps } = ue.config.traffic {
                ue.backlog_bits += bps / 1000.0;
            }
        }
        if !self.owns_tti(self.tti) {
            // Decay PF averages so the tracker stays consistent in time.
            for ue in &mut self.ues {
                ue.avg_rate *= 1.0 - self.config.pf_alpha;
            }
            self.tti += 1;
            return;
        }

        // Per-UE channel state this TTI.
        let n = self.ues.len();
        let mut sched_inputs = Vec::with_capacity(n);
        for i in 0..n {
            if !self.ues[i].served {
                continue;
            }
            let sinr = self.sinr_db(i, now);
            let ue = &mut self.ues[i];
            if sinr.to_bits() != ue.link.sinr_db.to_bits() {
                ue.link = LinkQuality::at(sinr, &self.harq);
            }
            ue.sinr_sum += sinr;
            ue.sinr_samples += 1;
            let Some(cqi) = ue.link.cqi else {
                continue; // out of range this TTI
            };
            ue.cqi_sum += cqi.cqi as f64;
            let backlog = match ue.config.traffic {
                Traffic::FullBuffer => u64::MAX,
                Traffic::Cbr { .. } => ue.backlog_bits.max(0.0) as u64,
            };
            sched_inputs.push(SchedUe {
                id: i,
                bits_per_prb: ue.link.bits_per_prb,
                backlog_bits: backlog,
                avg_rate: ue.avg_rate,
            });
        }

        self.grid.reset();
        self.scheduler
            .schedule(self.tti, &sched_inputs, &mut self.grid);
        self.util_sum += self.grid.utilization();
        self.util_ttis += 1;
        // Per-TTI hot path: interned counter handle, no string lookup.
        static SCHED_GRANTS: std::sync::OnceLock<dlte_obs::metrics::CounterId> =
            std::sync::OnceLock::new();
        SCHED_GRANTS
            .get_or_init(|| dlte_obs::metrics::register_counter("sched_grants"))
            .add(self.grid.allocations().len() as u64);
        if dlte_obs::tracing_enabled() {
            self.trace_allocations(now);
        }

        // Deliver allocated bits through the HARQ model. Only UEs with a
        // CQI this TTI were offered to the scheduler, so every allocation's
        // link quality is in range.
        let mut served_bits = vec![0f64; n];
        for alloc in self.grid.allocations() {
            let link = &self.ues[alloc.ue].link;
            let raw_bits = link.bits_per_prb * alloc.n_prb as f64;
            served_bits[alloc.ue] += raw_bits * link.harq_efficiency;
        }
        for (i, &bits) in served_bits.iter().enumerate() {
            let alpha = self.config.pf_alpha;
            let ue = &mut self.ues[i];
            if bits > 0.0 {
                ue.scheduled_ttis += 1;
                // Goodput counts only bits the UE actually had queued: PRB
                // granularity can over-allocate the last block of a CBR
                // drain, and padding is not goodput.
                let counted = match ue.config.traffic {
                    Traffic::FullBuffer => bits,
                    Traffic::Cbr { .. } => bits.min(ue.backlog_bits),
                };
                ue.delivered_bits += counted as u64;
                if let Traffic::Cbr { .. } = ue.config.traffic {
                    ue.backlog_bits = (ue.backlog_bits - bits).max(0.0);
                }
            }
            ue.avg_rate = (1.0 - alpha) * ue.avg_rate + alpha * bits;
        }
        self.tti += 1;
    }

    /// Emit one `SchedGrant` per allocation this TTI, plus a sampled HARQ
    /// outcome for the granted block. Trace-only: the delivery model above
    /// uses the analytic HARQ expectation, so sampling here perturbs nothing.
    fn trace_allocations(&mut self, now: SimTime) {
        let t_ns = now.as_nanos();
        for alloc in self.grid.allocations() {
            let link = self.ues[alloc.ue].link;
            let Some(cqi) = link.cqi else {
                continue;
            };
            let sinr = link.sinr_db;
            let ue = alloc.ue as u64;
            dlte_obs::emit(
                t_ns,
                TRACE_NODE,
                Event::SchedGrant {
                    ue,
                    rbs: alloc.n_prb,
                    tbs_bits: transport_block_bits(cqi, alloc.n_prb),
                },
            );
            let o = self
                .harq
                .simulate_block(sinr, cqi, &mut self.harq_trace_rng);
            dlte_obs::harq_block(t_ns, TRACE_NODE, ue, o.transmissions, o.delivered);
        }
    }

    /// Run for `duration` and produce the report.
    pub fn run(&mut self, duration: SimDuration) -> CellReport {
        let ttis = duration.as_millis();
        for _ in 0..ttis {
            self.step_tti();
        }
        // One TTI = one unit of work for the run instrumentation.
        dlte_sim::report::credit(ttis, duration);
        self.elapsed += duration;
        self.report()
    }

    /// Produce a report over all the simulated time run so far.
    pub fn report(&self) -> CellReport {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        let total_ttis = self.tti.max(1);
        let ues: Vec<UeReport> = self
            .ues
            .iter()
            .enumerate()
            .map(|(id, ue)| UeReport {
                id,
                served: ue.served,
                goodput_bps: ue.delivered_bits as f64 / secs,
                mean_sinr_db: if ue.sinr_samples > 0 {
                    ue.sinr_sum / ue.sinr_samples as f64
                } else {
                    f64::NEG_INFINITY
                },
                mean_cqi: if ue.sinr_samples > 0 {
                    ue.cqi_sum / ue.sinr_samples as f64
                } else {
                    0.0
                },
                scheduled_fraction: ue.scheduled_ttis as f64 / total_ttis as f64,
                delivered_bits: ue.delivered_bits,
            })
            .collect();
        let rates: Vec<f64> = ues.iter().map(|u| u.goodput_bps).collect();
        CellReport {
            aggregate_goodput_bps: rates.iter().sum(),
            jain_fairness: jain_index(&rates),
            mean_grid_utilization: if self.util_ttis > 0 {
                self.util_sum / self.util_ttis as f64
            } else {
                0.0
            },
            duration: self.elapsed,
            ues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cell(config: CellConfig, ues: Vec<UeConfig>, secs: u64) -> CellReport {
        let rng = SimRng::new(42);
        let mut sim = CellSim::new(config, ues, &rng);
        sim.run(SimDuration::from_secs(secs))
    }

    #[test]
    fn single_close_ue_gets_near_peak() {
        let report = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(0.5)], 2);
        // 10 MHz SISO with 25% overhead peaks at ~35 Mbit/s.
        let g = report.ues[0].goodput_bps;
        assert!((30e6..40e6).contains(&g), "goodput {g}");
        assert!(report.ues[0].mean_cqi > 14.0);
        assert!(report.mean_grid_utilization > 0.99);
    }

    #[test]
    fn goodput_decreases_with_distance() {
        let mut prev = f64::INFINITY;
        for d in [1.0, 5.0, 10.0, 20.0, 40.0] {
            let r = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(d)], 1);
            let g = r.ues[0].goodput_bps;
            assert!(g < prev, "{d} km: {g} !< {prev}");
            prev = g;
        }
    }

    #[test]
    fn two_ues_share_the_grid() {
        let r = run_cell(
            CellConfig::rural_default(),
            vec![UeConfig::at_km(1.0), UeConfig::at_km(1.0)],
            2,
        );
        let (a, b) = (r.ues[0].goodput_bps, r.ues[1].goodput_bps);
        assert!(
            (a / b - 1.0).abs() < 0.05,
            "equal UEs should split: {a} vs {b}"
        );
        assert!(r.jain_fairness > 0.99);
        // Sum still ≈ one-UE peak.
        assert!((30e6..40e6).contains(&(a + b)));
    }

    #[test]
    fn tdm_share_halves_throughput() {
        let mut half = CellConfig::rural_default();
        half.tdm_share = 0.5;
        let full = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(1.0)], 2);
        let shared = run_cell(half, vec![UeConfig::at_km(1.0)], 2);
        let ratio = shared.ues[0].goodput_bps / full.ues[0].goodput_bps;
        assert!((ratio - 0.5).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn masked_prbs_halve_throughput() {
        let mut half = CellConfig::rural_default();
        half.masked_prb = 25;
        let full = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(1.0)], 2);
        let shared = run_cell(half, vec![UeConfig::at_km(1.0)], 2);
        let ratio = shared.ues[0].goodput_bps / full.ues[0].goodput_bps;
        assert!((ratio - 0.5).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn cbr_ue_gets_exactly_its_rate() {
        let mut ue = UeConfig::at_km(1.0);
        ue.traffic = Traffic::Cbr { bps: 2e6 };
        let r = run_cell(CellConfig::rural_default(), vec![ue], 5);
        let g = r.ues[0].goodput_bps;
        assert!((g / 2e6 - 1.0).abs() < 0.02, "CBR goodput {g}");
        // And the grid is mostly idle.
        assert!(r.mean_grid_utilization < 0.2);
    }

    #[test]
    fn interference_reduces_goodput() {
        let mut interfered = UeConfig::at_km(2.0);
        interfered.interference_dbm = -90.0;
        let clean = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(2.0)], 1);
        let dirty = run_cell(CellConfig::rural_default(), vec![interfered], 1);
        assert!(dirty.ues[0].goodput_bps < clean.ues[0].goodput_bps);
    }

    #[test]
    fn uplink_without_ta_fails_at_range_paper_e4() {
        let mut cfg = CellConfig::rural_default();
        cfg.direction = Direction::Uplink;
        cfg.timing_advance = false;
        let no_ta = run_cell(cfg.clone(), vec![UeConfig::at_km(8.0)], 1);
        cfg.timing_advance = true;
        let with_ta = run_cell(cfg, vec![UeConfig::at_km(8.0)], 1);
        assert!(
            with_ta.ues[0].goodput_bps > 1.5 * no_ta.ues[0].goodput_bps,
            "TA {} vs no-TA {}",
            with_ta.ues[0].goodput_bps,
            no_ta.ues[0].goodput_bps
        );
    }

    #[test]
    fn ue_beyond_prach_range_not_served() {
        let mut cfg = CellConfig::rural_default();
        cfg.prach = PrachFormat::Format0; // 14.5 km
        let r = run_cell(cfg, vec![UeConfig::at_km(20.0), UeConfig::at_km(5.0)], 1);
        assert!(!r.ues[0].served);
        assert_eq!(r.ues[0].goodput_bps, 0.0);
        assert!(r.ues[1].served);
        assert!(r.ues[1].goodput_bps > 0.0);
    }

    #[test]
    fn pf_beats_rr_with_mixed_channels() {
        // One near, one far UE: PF should deliver more aggregate than RR
        // while keeping the far UE served.
        let ues = || vec![UeConfig::at_km(0.5), UeConfig::at_km(15.0)];
        let mut pf_cfg = CellConfig::rural_default();
        pf_cfg.scheduler = SchedulerKind::ProportionalFair;
        let mut rr_cfg = CellConfig::rural_default();
        rr_cfg.scheduler = SchedulerKind::RoundRobin;
        let pf = run_cell(pf_cfg, ues(), 2);
        let rr = run_cell(rr_cfg, ues(), 2);
        assert!(pf.aggregate_goodput_bps >= rr.aggregate_goodput_bps * 0.98);
        assert!(pf.ues[1].goodput_bps > 0.0, "PF must serve the far UE");
    }

    #[test]
    fn max_ci_maximizes_aggregate_but_starves() {
        let ues = || vec![UeConfig::at_km(0.5), UeConfig::at_km(15.0)];
        let mut ci_cfg = CellConfig::rural_default();
        ci_cfg.scheduler = SchedulerKind::MaxCi;
        let mut rr_cfg = CellConfig::rural_default();
        rr_cfg.scheduler = SchedulerKind::RoundRobin;
        let ci = run_cell(ci_cfg, ues(), 2);
        let rr = run_cell(rr_cfg, ues(), 2);
        assert!(ci.aggregate_goodput_bps > rr.aggregate_goodput_bps);
        assert!(ci.jain_fairness < rr.jain_fairness);
        assert_eq!(ci.ues[1].goodput_bps, 0.0, "Max C/I starves the far UE");
    }

    #[test]
    fn tracing_emits_grants_without_changing_results() {
        let base = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(1.0)], 1);
        dlte_obs::set_tracing(true);
        let traced = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(1.0)], 1);
        let records = dlte_obs::take_records();
        dlte_obs::set_tracing(false);
        assert_eq!(base.ues[0].delivered_bits, traced.ues[0].delivered_bits);
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::SchedGrant { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::HarqTx { .. })));
    }

    #[test]
    fn two_runs_report_like_one_run_of_their_sum() {
        let mut split = CellSim::new(
            CellConfig::rural_default(),
            vec![UeConfig::at_km(1.0)],
            &SimRng::new(42),
        );
        split.run(SimDuration::from_secs(1));
        let second = split.run(SimDuration::from_secs(1));
        let whole = run_cell(CellConfig::rural_default(), vec![UeConfig::at_km(1.0)], 2);
        assert_eq!(format!("{second:?}"), format!("{whole:?}"));
    }

    #[test]
    fn tdm_pattern_is_exact() {
        let mut cfg = CellConfig::rural_default();
        cfg.tdm_share = 0.25;
        let sim = CellSim::new(cfg, vec![], &SimRng::new(1));
        let owned = (0..1000).filter(|&t| sim.owns_tti(t)).count();
        assert_eq!(owned, 250);
    }
}
