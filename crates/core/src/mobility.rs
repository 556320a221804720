//! Movement models for mobility scenarios.
//!
//! The paper's §4.2 mobility story (detach → re-attach, endpoint
//! transports absorbing address churn) is only credible if it is tested
//! under *populations* in motion, not a single scripted hop. This module
//! generates deterministic, seeded movement plans ([`dlte_faults::MovePlan`]
//! data — the same shrink/replay machinery as fault plans) from two models:
//!
//! * **waypoint** — each UE dwells a random interval, then jumps to a
//!   uniformly-drawn other AP (the classic random-waypoint churn that
//!   stresses detach/attach storms);
//! * **vehicular** — each UE rides a fixed ring route at constant dwell
//!   (the tinyLTE drive-test shape: predictable sequential handovers at
//!   vehicular cell-crossing rates).
//!
//! Every plan is a pure function of the seed.

use dlte_faults::{MovePlan, MoveSpec};
use dlte_sim::SimTime;
use serde::{Deserialize, Serialize};

/// How a UE population moves between APs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MovementModel {
    /// Seeded random waypoint: dwell `dwell_min_s..dwell_max_s`, then jump
    /// to a uniformly-drawn other AP.
    Waypoint { dwell_min_s: f64, dwell_max_s: f64 },
    /// Deterministic ring route: every `dwell_s` the UE advances `hop`
    /// APs around the ring, phase-staggered per UE so the storm is spread
    /// rather than synchronized.
    Vehicular { dwell_s: f64, hop: usize },
}

impl MovementModel {
    /// Generate the movement plan for `n_ues` UEs over `n_aps` APs, with
    /// moves confined to `[start_s, end_s)`. UE `i` is assumed homed on AP
    /// `i % n_aps` (the topology convention). Deterministic in `seed`.
    pub fn plan(
        &self,
        seed: u64,
        n_ues: usize,
        n_aps: usize,
        start_s: f64,
        end_s: f64,
    ) -> MovePlan {
        match *self {
            MovementModel::Waypoint {
                dwell_min_s,
                dwell_max_s,
            } => {
                MovePlan::commuter_mix(seed, n_ues, n_aps, dwell_min_s, dwell_max_s, start_s, end_s)
            }
            MovementModel::Vehicular { dwell_s, hop } => {
                let mut plan = MovePlan::new(seed);
                if n_aps < 2 || dwell_s <= 0.0 {
                    return plan;
                }
                let hop = hop.max(1);
                for ue in 0..n_ues {
                    let mut here = ue % n_aps;
                    // Stagger departures across one dwell so the ring does
                    // not hand every UE over in the same instant.
                    let mut t = start_s + dwell_s * (ue as f64 / n_ues.max(1) as f64);
                    while t < end_s {
                        let next = (here + hop) % n_aps;
                        if next != here {
                            plan.moves.push(MoveSpec {
                                ue,
                                at_s: t,
                                ap: next,
                            });
                            here = next;
                        }
                        t += dwell_s;
                    }
                }
                plan
            }
        }
    }
}

/// Map an AP index onto a UE's cell-list index. The scenario builders put
/// the home cell first, then all other APs in ascending order, so for home
/// `h`: AP `h` → 0, AP `j < h` → `j + 1`, AP `j > h` → `j`.
pub fn cell_index_for(home_ap: usize, ap: usize, n_aps: usize) -> usize {
    debug_assert!(home_ap < n_aps && ap < n_aps);
    if ap == home_ap {
        0
    } else if ap < home_ap {
        ap + 1
    } else {
        ap
    }
}

/// One UE's cell changes under a population move plan, as the builders
/// hand them to the UE: its moves to APs below `n_aps`, each target mapped
/// onto the UE's cell list with [`cell_index_for`].
pub fn cell_schedule(
    moves: &MovePlan,
    ue: usize,
    home_ap: usize,
    n_aps: usize,
) -> Vec<(SimTime, usize)> {
    moves
        .schedule_for(ue)
        .into_iter()
        .filter(|&(_, ap)| ap < n_aps)
        .map(|(t, ap)| (t, cell_index_for(home_ap, ap, n_aps)))
        .collect()
}

/// Inverse of [`cell_index_for`]: which AP a UE's cell-list index refers
/// to (cell 0 is the home AP).
pub fn ap_index_for(home_ap: usize, cell: usize, n_aps: usize) -> usize {
    debug_assert!(home_ap < n_aps && cell < n_aps);
    if cell == 0 {
        home_ap
    } else if cell <= home_ap {
        cell - 1
    } else {
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waypoint_plan_is_deterministic_and_bounded() {
        let m = MovementModel::Waypoint {
            dwell_min_s: 0.5,
            dwell_max_s: 1.5,
        };
        let a = m.plan(9, 6, 4, 2.0, 10.0);
        let b = m.plan(9, 6, 4, 2.0, 10.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for mv in &a.moves {
            assert!((2.0..10.0).contains(&mv.at_s));
            assert!(mv.ap < 4);
        }
    }

    #[test]
    fn vehicular_plan_rides_the_ring() {
        let m = MovementModel::Vehicular {
            dwell_s: 1.0,
            hop: 1,
        };
        let plan = m.plan(1, 2, 4, 2.0, 6.5);
        // UE 0 starts at AP 0 and advances one AP per second from t=2.
        let sched = plan.schedule_for(0);
        let aps: Vec<usize> = sched.iter().map(|&(_, ap)| ap).collect();
        assert_eq!(aps, vec![1, 2, 3, 0, 1]);
        // Phase stagger: UE 1's first move is later than UE 0's.
        assert!(plan.schedule_for(1)[0].0 > sched[0].0);
    }

    #[test]
    fn cell_index_mapping_matches_builder_order() {
        // home 2 of 4 APs → cell list is [2, 0, 1, 3].
        assert_eq!(cell_index_for(2, 2, 4), 0);
        assert_eq!(cell_index_for(2, 0, 4), 1);
        assert_eq!(cell_index_for(2, 1, 4), 2);
        assert_eq!(cell_index_for(2, 3, 4), 3);
        // home 0 → identity on the tail.
        assert_eq!(cell_index_for(0, 0, 3), 0);
        assert_eq!(cell_index_for(0, 1, 3), 1);
        assert_eq!(cell_index_for(0, 2, 3), 2);
        // The inverse round-trips for every (home, ap) pair.
        for home in 0..5 {
            for ap in 0..5 {
                let cell = cell_index_for(home, ap, 5);
                assert_eq!(ap_index_for(home, cell, 5), ap, "home {home} ap {ap}");
            }
        }
    }
}
