//! Property-based tests for the coordination algorithms.

use dlte_x2::cooperative::{best_ap_assignment, load_balanced_assignment, ClientMeasurement};
use dlte_x2::{max_min_shares, weighted_shares};
use proptest::prelude::*;

fn arb_demands() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..2.0, 1..12)
}

proptest! {
    /// Max-min fairness properties: feasibility, demand caps, and the
    /// max-min property itself (an unsatisfied AP gets at least as much as
    /// anyone else).
    #[test]
    fn max_min_properties(demands in arb_demands(), total in 0.0f64..3.0) {
        let shares = max_min_shares(&demands, total);
        prop_assert_eq!(shares.len(), demands.len());
        let sum: f64 = shares.iter().sum();
        prop_assert!(sum <= total + 1e-9, "infeasible: {sum} > {total}");
        let demand_sum: f64 = demands.iter().sum();
        if demand_sum >= total {
            prop_assert!((sum - total).abs() < 1e-9, "must exhaust: {sum} vs {total}");
        } else {
            prop_assert!((sum - demand_sum).abs() < 1e-9, "must satisfy all");
        }
        for i in 0..demands.len() {
            prop_assert!(shares[i] <= demands[i] + 1e-9, "cap violated at {i}");
            prop_assert!(shares[i] >= -1e-12);
            if shares[i] < demands[i] - 1e-9 {
                // Unsatisfied: must be a maximal share.
                for j in 0..demands.len() {
                    prop_assert!(
                        shares[i] >= shares[j] - 1e-9,
                        "max-min violated: {} < {}",
                        shares[i],
                        shares[j]
                    );
                }
            }
        }
    }

    /// Weighted shares: feasible, capped, and exhausting whenever demand
    /// allows.
    #[test]
    fn weighted_properties(
        pairs in prop::collection::vec((0.0f64..2.0, 0.1f64..5.0), 1..12),
        total in 0.0f64..3.0,
    ) {
        let demands: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let shares = weighted_shares(&demands, &weights, total);
        let sum: f64 = shares.iter().sum();
        prop_assert!(sum <= total + 1e-9);
        for i in 0..demands.len() {
            prop_assert!(shares[i] <= demands[i] + 1e-9);
            prop_assert!(shares[i] >= -1e-12);
        }
        let demand_sum: f64 = demands.iter().sum();
        let expected = demand_sum.min(total);
        prop_assert!((sum - expected).abs() < 1e-6, "{sum} vs {expected}");
    }

    /// Assignments: every client assigned, loads consistent, best-AP picks
    /// argmax, and load balancing never violates the sacrifice cap.
    #[test]
    fn assignment_invariants(
        sinrs in prop::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..20),
        cap in 0.0f64..15.0,
    ) {
        let clients: Vec<ClientMeasurement> = sinrs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| ClientMeasurement {
                client: i as u64,
                sinr_db: vec![a, b],
            })
            .collect();
        let best = best_ap_assignment(&clients, 2);
        prop_assert_eq!(best.ap_of.len(), clients.len());
        prop_assert_eq!(
            (best.load[0] + best.load[1]) as usize,
            clients.len()
        );
        for (i, c) in clients.iter().enumerate() {
            let chosen = best.ap_of[i];
            let other = 1 - chosen;
            prop_assert!(
                c.sinr_db[chosen] >= c.sinr_db[other] - 1e-12,
                "client {i} not on best AP"
            );
        }
        let balanced = load_balanced_assignment(&clients, 2, cap);
        prop_assert_eq!(
            (balanced.load[0] + balanced.load[1]) as usize,
            clients.len()
        );
        // Any client moved off its best AP sacrificed at most `cap` dB.
        for (i, c) in clients.iter().enumerate() {
            if balanced.ap_of[i] != best.ap_of[i] {
                let sacrifice = c.sinr_db[best.ap_of[i]] - c.sinr_db[balanced.ap_of[i]];
                prop_assert!(sacrifice <= cap + 1e-9, "client {i} sacrificed {sacrifice}");
            }
        }
    }

    /// Load balancing with an unlimited sacrifice cap equalizes loads to
    /// within one client.
    #[test]
    fn unlimited_cap_balances(
        sinrs in prop::collection::vec((5.0f64..25.0, 5.0f64..25.0), 2..20),
    ) {
        let clients: Vec<ClientMeasurement> = sinrs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| ClientMeasurement {
                client: i as u64,
                sinr_db: vec![a, b],
            })
            .collect();
        let a = load_balanced_assignment(&clients, 2, f64::INFINITY);
        let diff = (a.load[0] as i64 - a.load[1] as i64).abs();
        prop_assert!(diff <= 1, "loads {:?}", a.load);
    }
}
