//! Move plans as the UE sees them.
//!
//! A population's movement plan ([`dlte_faults::MovePlan`], e.g. the
//! seeded waypoint churn of [`MovePlan::commuter_mix`]) names target APs.
//! A UE instead holds a list of cells with its home cell first; this
//! module maps between the two orders, and [`cell_schedule`] turns one
//! UE's share of a plan into the cell changes the builders hand it.

use dlte_faults::MovePlan;
use dlte_sim::SimTime;

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
