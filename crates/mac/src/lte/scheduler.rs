//! TTI schedulers.
//!
//! Each subframe the scheduler distributes the grid's available PRBs over
//! the UEs with pending data. Three classical disciplines are provided:
//!
//! * **Round-robin** — equal-resource, the simplest fair baseline;
//! * **Proportional fair** — maximizes Σ log(throughput); the industry
//!   default and what "LTE's built-in coordinated channel assignment and
//!   scheduling" (§6) means in practice;
//! * **Max C/I** — throughput-optimal and starvation-prone; the upper
//!   envelope in fairness/efficiency plots.
//!
//! The cooperative dLTE mode (E7) reuses [`ProportionalFair`] across cells
//! by feeding it a *joint* UE population — the scheduler itself is
//! deliberately unaware of which AP it serves.

use super::grid::{PrbGrid, UeId};
use serde::{Deserialize, Serialize};

/// Per-UE inputs to a scheduling decision.
#[derive(Clone, Debug)]
pub struct SchedUe {
    pub id: UeId,
    /// Bits this UE could carry per PRB this TTI (from its current CQI).
    pub bits_per_prb: f64,
    /// Bits waiting in this UE's queue (u64::MAX for full-buffer).
    pub backlog_bits: u64,
    /// Long-term average served rate, bits/TTI (PF denominator). The caller
    /// owns the EWMA update; the scheduler only reads it.
    pub avg_rate: f64,
}

impl SchedUe {
    fn wants_prb(&self) -> bool {
        self.backlog_bits > 0 && self.bits_per_prb > 0.0
    }

    /// PRBs needed to drain the backlog this TTI.
    fn prb_demand(&self) -> u32 {
        if !self.wants_prb() {
            return 0;
        }
        if self.backlog_bits == u64::MAX {
            return u32::MAX;
        }
        (self.backlog_bits as f64 / self.bits_per_prb).ceil() as u32
    }
}

/// A scheduling discipline.
pub trait TtiScheduler {
    /// Fill `grid` from `ues`. Implementations must only allocate to UEs
    /// with positive demand and must respect grid capacity (enforced by
    /// [`PrbGrid`] itself).
    fn schedule(&mut self, tti: u64, ues: &[SchedUe], grid: &mut PrbGrid);
}

/// Selector for constructing schedulers from experiment configs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SchedulerKind {
    RoundRobin,
    ProportionalFair,
    MaxCi,
}

impl SchedulerKind {
    pub fn build(self) -> Box<dyn TtiScheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::ProportionalFair => Box::new(ProportionalFair::new()),
            SchedulerKind::MaxCi => Box::new(MaxCi),
        }
    }
}

/// Equal-share round robin with a rotating starting offset.
pub struct RoundRobin {
    next_start: usize,
}

impl RoundRobin {
    pub fn new() -> Self {
        RoundRobin { next_start: 0 }
    }
}

impl Default for RoundRobin {
    fn default() -> Self {
        Self::new()
    }
}

impl TtiScheduler for RoundRobin {
    fn schedule(&mut self, _tti: u64, ues: &[SchedUe], grid: &mut PrbGrid) {
        let eligible: Vec<&SchedUe> = ues.iter().filter(|u| u.wants_prb()).collect();
        if eligible.is_empty() {
            return;
        }
        let n = eligible.len();
        let start = self.next_start % n;
        self.next_start = self.next_start.wrapping_add(1);
        // Equal split, remainder to the UEs at the rotating head; then a
        // second pass hands unused capacity (from UEs with small backlogs)
        // to whoever still has demand.
        let fair_share = (grid.available() / n as u32).max(1);
        for k in 0..n {
            let ue = eligible[(start + k) % n];
            let want = ue.prb_demand().min(fair_share);
            grid.allocate(ue.id, want);
            if grid.available() == 0 {
                return;
            }
        }
        for k in 0..n {
            let ue = eligible[(start + k) % n];
            let already: u32 = grid
                .allocations()
                .iter()
                .filter(|a| a.ue == ue.id)
                .map(|a| a.n_prb)
                .sum();
            let residual = ue.prb_demand().saturating_sub(already);
            if residual > 0 {
                grid.allocate(ue.id, residual);
                if grid.available() == 0 {
                    return;
                }
            }
        }
    }
}

/// Proportional fair: PRB-by-PRB greedy on the metric `r_i / max(R_i, ε)`.
pub struct ProportionalFair {
    /// Floor on the average-rate denominator to bootstrap new UEs.
    epsilon: f64,
}

impl ProportionalFair {
    pub fn new() -> Self {
        ProportionalFair { epsilon: 1.0 }
    }
}

impl Default for ProportionalFair {
    fn default() -> Self {
        Self::new()
    }
}

impl TtiScheduler for ProportionalFair {
    fn schedule(&mut self, _tti: u64, ues: &[SchedUe], grid: &mut PrbGrid) {
        // Greedy per-PRB assignment; with wideband CQI each UE's metric is
        // flat across PRBs, so we simulate the per-PRB loop efficiently by
        // tracking how many bits each UE has been granted *this TTI* and
        // re-evaluating the metric after every grant of one PRB.
        let mut demand: Vec<(usize, u32)> = ues
            .iter()
            .enumerate()
            .filter(|(_, u)| u.wants_prb())
            .map(|(i, u)| (i, u.prb_demand()))
            .collect();
        if demand.is_empty() {
            return;
        }
        let mut granted_bits = vec![0f64; ues.len()];
        while grid.available() > 0 && !demand.is_empty() {
            // Metric uses avg updated with this TTI's provisional grants so a
            // single TTI doesn't dump the whole grid on one UE.
            let (best_pos, _) = demand
                .iter()
                .enumerate()
                .map(|(pos, &(i, _))| {
                    let u = &ues[i];
                    let denom = (u.avg_rate + granted_bits[i]).max(self.epsilon);
                    (pos, u.bits_per_prb / denom)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("metric NaN"))
                .expect("demand non-empty");
            let (i, remaining) = demand[best_pos];
            let got = grid.allocate(ues[i].id, 1);
            if got == 0 {
                break;
            }
            granted_bits[i] += ues[i].bits_per_prb;
            if remaining <= 1 {
                demand.swap_remove(best_pos);
            } else {
                demand[best_pos].1 = remaining - 1;
            }
        }
    }
}

/// Max C/I: all PRBs to the best-channel UE, then the next, etc.
pub struct MaxCi;

impl TtiScheduler for MaxCi {
    fn schedule(&mut self, _tti: u64, ues: &[SchedUe], grid: &mut PrbGrid) {
        let mut order: Vec<&SchedUe> = ues.iter().filter(|u| u.wants_prb()).collect();
        order.sort_by(|a, b| {
            b.bits_per_prb
                .partial_cmp(&a.bits_per_prb)
                .expect("bits_per_prb NaN")
        });
        for ue in order {
            if grid.available() == 0 {
                return;
            }
            grid.allocate(ue.id, ue.prb_demand());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_buffer(id: UeId, bits_per_prb: f64, avg_rate: f64) -> SchedUe {
        SchedUe {
            id,
            bits_per_prb,
            backlog_bits: u64::MAX,
            avg_rate,
        }
    }

    fn prb_for(grid: &PrbGrid, ue: UeId) -> u32 {
        grid.allocations()
            .iter()
            .filter(|a| a.ue == ue)
            .map(|a| a.n_prb)
            .sum()
    }

    #[test]
    fn round_robin_splits_evenly() {
        let mut s = RoundRobin::new();
        let ues = vec![
            full_buffer(0, 100.0, 0.0),
            full_buffer(1, 500.0, 0.0),
            full_buffer(2, 300.0, 0.0),
        ];
        let mut grid = PrbGrid::new(30, 0);
        s.schedule(0, &ues, &mut grid);
        for ue in 0..3 {
            assert_eq!(prb_for(&grid, ue), 10, "ue {ue}");
        }
    }

    #[test]
    fn round_robin_rotates_remainder() {
        let mut s = RoundRobin::new();
        let ues = vec![full_buffer(0, 1.0, 0.0), full_buffer(1, 1.0, 0.0)];
        // 3 PRBs over 2 UEs: someone gets 2. Over two TTIs it should even out.
        let mut total = [0u32; 2];
        for tti in 0..2 {
            let mut grid = PrbGrid::new(3, 0);
            s.schedule(tti, &ues, &mut grid);
            for (ue, t) in total.iter_mut().enumerate() {
                *t += prb_for(&grid, ue);
            }
        }
        assert_eq!(total[0] + total[1], 6);
        assert_eq!(total[0], 3);
        assert_eq!(total[1], 3);
    }

    #[test]
    fn round_robin_redistributes_unused_share() {
        let mut s = RoundRobin::new();
        // UE 0 needs only 2 PRBs; UE 1 is full-buffer and should receive the
        // leftovers.
        let ues = vec![
            SchedUe {
                id: 0,
                bits_per_prb: 100.0,
                backlog_bits: 150,
                avg_rate: 0.0,
            },
            full_buffer(1, 100.0, 0.0),
        ];
        let mut grid = PrbGrid::new(20, 0);
        s.schedule(0, &ues, &mut grid);
        assert_eq!(prb_for(&grid, 0), 2);
        assert_eq!(prb_for(&grid, 1), 18);
    }

    #[test]
    fn max_ci_starves_weak_ue() {
        let mut s = MaxCi;
        let ues = vec![full_buffer(0, 700.0, 0.0), full_buffer(1, 100.0, 0.0)];
        let mut grid = PrbGrid::new(50, 0);
        s.schedule(0, &ues, &mut grid);
        assert_eq!(prb_for(&grid, 0), 50);
        assert_eq!(prb_for(&grid, 1), 0);
    }

    #[test]
    fn pf_favors_underserved_ue() {
        let mut s = ProportionalFair::new();
        // Same channel quality, but UE 1 has been served 10× more.
        let ues = vec![full_buffer(0, 100.0, 100.0), full_buffer(1, 100.0, 1000.0)];
        let mut grid = PrbGrid::new(50, 0);
        s.schedule(0, &ues, &mut grid);
        assert!(
            prb_for(&grid, 0) > prb_for(&grid, 1),
            "underserved UE should win: {} vs {}",
            prb_for(&grid, 0),
            prb_for(&grid, 1)
        );
    }

    #[test]
    fn pf_does_not_starve_weak_channel() {
        let mut s = ProportionalFair::new();
        // UE 1 has a 5× worse channel; PF should still serve it PRBs once
        // its average falls behind. With equal starting averages, PF grants
        // both (the provisional-grant denominator self-balances).
        let ues = vec![full_buffer(0, 500.0, 10.0), full_buffer(1, 100.0, 10.0)];
        let mut grid = PrbGrid::new(50, 0);
        s.schedule(0, &ues, &mut grid);
        assert!(prb_for(&grid, 0) > 0);
        assert!(prb_for(&grid, 1) > 0, "PF must not starve the weak UE");
    }

    #[test]
    fn all_schedulers_respect_backlog_and_capacity() {
        for kind in [
            SchedulerKind::RoundRobin,
            SchedulerKind::ProportionalFair,
            SchedulerKind::MaxCi,
        ] {
            let mut s = kind.build();
            let ues = vec![
                SchedUe {
                    id: 0,
                    bits_per_prb: 100.0,
                    backlog_bits: 250, // needs 3 PRBs
                    avg_rate: 1.0,
                },
                SchedUe {
                    id: 1,
                    bits_per_prb: 100.0,
                    backlog_bits: 0, // idle
                    avg_rate: 1.0,
                },
            ];
            let mut grid = PrbGrid::new(50, 0);
            s.schedule(0, &ues, &mut grid);
            assert_eq!(prb_for(&grid, 0), 3, "{kind:?} over/under-allocated");
            assert_eq!(prb_for(&grid, 1), 0, "{kind:?} served idle UE");
        }
    }

    #[test]
    fn empty_ue_set_is_fine() {
        for kind in [
            SchedulerKind::RoundRobin,
            SchedulerKind::ProportionalFair,
            SchedulerKind::MaxCi,
        ] {
            let mut s = kind.build();
            let mut grid = PrbGrid::new(50, 0);
            s.schedule(0, &[], &mut grid);
            assert_eq!(grid.available(), 50);
        }
    }
}
