//! Cooperative mode: fuse the resources of neighboring APs.
//!
//! §4.3: cooperation enables *"client handoff across the APs, QoS aware
//! joint flow scheduling between APs, and the assignment of the best AP to
//! serve each client device."* These are pure decision functions — the
//! event-level execution (actual handoffs, schedules) is carried out by the
//! MAC/EPC layers that consume their output.

use serde::{Deserialize, Serialize};

/// Per-client view across APs: `sinr_db[a]` is the client's SINR to AP `a`
/// (negative infinity if unreachable).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClientMeasurement {
    pub client: u64,
    pub sinr_db: Vec<f64>,
}

/// Assignment of clients to APs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// `ap_of[i]` = AP index serving client `i` of the input slice.
    pub ap_of: Vec<usize>,
    /// Clients per AP.
    pub load: Vec<u32>,
}

/// Greedy best-AP assignment: each client to its strongest AP.
pub fn best_ap_assignment(clients: &[ClientMeasurement], n_aps: usize) -> Assignment {
    let mut ap_of = Vec::with_capacity(clients.len());
    let mut load = vec![0u32; n_aps];
    for c in clients {
        assert_eq!(c.sinr_db.len(), n_aps, "measurement width mismatch");
        let best = c
            .sinr_db
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN SINR"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        ap_of.push(best);
        load[best] += 1;
    }
    Assignment { ap_of, load }
}

/// Load-balanced assignment: start from best-AP, then migrate clients whose
/// SINR sacrifice is below `max_sacrifice_db` from the most- to the
/// least-loaded AP until loads differ by at most one (or no migration
/// qualifies). This is the "QoS aware" refinement: throughput is roughly
/// log-like in SINR, so a few dB sacrificed by an edge client buys a big
/// scheduling-share gain on the underloaded AP.
pub fn load_balanced_assignment(
    clients: &[ClientMeasurement],
    n_aps: usize,
    max_sacrifice_db: f64,
) -> Assignment {
    let mut a = best_ap_assignment(clients, n_aps);
    if n_aps < 2 {
        return a;
    }
    loop {
        let (hi, lo) = {
            let hi = (0..n_aps).max_by_key(|&i| a.load[i]).unwrap();
            let lo = (0..n_aps).min_by_key(|&i| a.load[i]).unwrap();
            (hi, lo)
        };
        if a.load[hi] <= a.load[lo] + 1 {
            break;
        }
        // Cheapest migratable client on the overloaded AP.
        let candidate = clients
            .iter()
            .enumerate()
            .filter(|(i, _)| a.ap_of[*i] == hi)
            .map(|(i, c)| (i, c.sinr_db[hi] - c.sinr_db[lo]))
            .filter(|&(_, sacrifice)| sacrifice <= max_sacrifice_db)
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("NaN"));
        match candidate {
            Some((i, _)) => {
                a.ap_of[i] = lo;
                a.load[hi] -= 1;
                a.load[lo] += 1;
            }
            None => break,
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(client: u64, sinrs: &[f64]) -> ClientMeasurement {
        ClientMeasurement {
            client,
            sinr_db: sinrs.to_vec(),
        }
    }

    /// Expected proportional-fair utility (Σ log throughput) of an
    /// assignment, using `log2(1+snr)` as the rate proxy and equal intra-AP
    /// sharing — the objective load balancing improves.
    fn pf_utility(clients: &[ClientMeasurement], a: &Assignment) -> f64 {
        clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let ap = a.ap_of[i];
                let rate = (1.0 + 10f64.powf(c.sinr_db[ap] / 10.0)).log2();
                let share = 1.0 / a.load[ap].max(1) as f64;
                (rate * share).max(1e-12).ln()
            })
            .sum()
    }

    #[test]
    fn best_ap_picks_strongest() {
        let clients = vec![c(0, &[20.0, 5.0]), c(1, &[3.0, 18.0]), c(2, &[10.0, 10.5])];
        let a = best_ap_assignment(&clients, 2);
        assert_eq!(a.ap_of, vec![0, 1, 1]);
        assert_eq!(a.load, vec![1, 2]);
    }

    #[test]
    fn load_balancing_moves_cheap_clients() {
        // Four clients all slightly prefer AP0; best-AP loads it 4:0, but
        // three of them lose only 1 dB by moving.
        let clients = vec![
            c(0, &[20.0, 19.0]),
            c(1, &[18.0, 17.0]),
            c(2, &[16.0, 15.0]),
            c(3, &[25.0, 5.0]), // this one genuinely needs AP0
        ];
        let best = best_ap_assignment(&clients, 2);
        assert_eq!(best.load, vec![4, 0]);
        let balanced = load_balanced_assignment(&clients, 2, 3.0);
        assert_eq!(balanced.load, vec![2, 2]);
        // Client 3 stays on AP0 (sacrifice 20 dB > 3 dB threshold).
        assert_eq!(balanced.ap_of[3], 0);
        // And the PF utility improves.
        assert!(pf_utility(&clients, &balanced) > pf_utility(&clients, &best));
    }

    #[test]
    fn balancing_respects_sacrifice_cap() {
        // Every client strongly prefers AP0: no migration qualifies.
        let clients = vec![c(0, &[20.0, 0.0]), c(1, &[20.0, 0.0]), c(2, &[20.0, 0.0])];
        let a = load_balanced_assignment(&clients, 2, 3.0);
        assert_eq!(a.load, vec![3, 0], "no one sacrifices 20 dB");
    }

    #[test]
    fn single_ap_is_trivial() {
        let clients = vec![c(0, &[10.0]), c(1, &[5.0])];
        let a = load_balanced_assignment(&clients, 1, 3.0);
        assert_eq!(a.ap_of, vec![0, 0]);
    }
}
