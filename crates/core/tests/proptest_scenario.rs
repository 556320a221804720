//! Property-based tests for the dLTE lowering's site plan.

use dlte::scenario::{Deployment, APS_PER_TOWN};
use proptest::prelude::*;

proptest! {
    /// The X2 peer relation the registry hands the dLTE lowering: symmetric,
    /// irreflexive, every list in ascending AP index, confined to the
    /// AP's town — and the old full mesh for any deployment that fits in
    /// one town (what keeps every small experiment's event stream
    /// unchanged).
    #[test]
    fn x2_neighbors_are_the_town(n_aps in 1usize..=64) {
        let peers = Deployment::x2_neighbors(n_aps);
        prop_assert_eq!(peers.len(), n_aps);
        for (k, list) in peers.iter().enumerate() {
            prop_assert!(!list.contains(&k), "ap{k} peers with itself");
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "ap{k}: {list:?}");
            for &j in list {
                prop_assert!(peers[j].contains(&k), "ap{k} -> ap{j} is one-way");
            }
            let town = k / APS_PER_TOWN * APS_PER_TOWN;
            let expected: Vec<usize> = (town..n_aps.min(town + APS_PER_TOWN))
                .filter(|&j| j != k)
                .collect();
            prop_assert_eq!(list, &expected);
        }
        if n_aps <= APS_PER_TOWN {
            for (k, list) in peers.iter().enumerate() {
                let mesh: Vec<usize> = (0..n_aps).filter(|&j| j != k).collect();
                prop_assert_eq!(list, &mesh);
            }
        }
    }
}
