//! The network side of EPS-AKA: subscriber records and authentication
//! vectors.
//!
//! In centralized LTE only the home HSS can mint vectors, which is exactly
//! why *"reliance on symmetric key authentication drives a need to securely
//! store secret keys"* (§2.1) and why new cores can't be added organically.
//! In dLTE any AP that can read the published key can mint the same vectors
//! (see [`crate::open`]).

use crate::milenage::{f1, f2, f3, f4, f5, kasme};
use crate::{Imsi, Key};
use dlte_sim::SimRng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One subscriber's HSS record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubscriberRecord {
    pub imsi: Imsi,
    pub k: Key,
    /// Last sequence number issued for this subscriber.
    pub sqn: u64,
}

/// An EPS authentication vector (RAND, XRES, AUTN, KASME).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthVector {
    pub rand: u128,
    pub xres: u64,
    /// AUTN = (SQN ⊕ AK, AMF, MAC).
    pub autn: Autn,
    pub kasme: u128,
}

/// The authentication token sent to the UE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Autn {
    pub sqn_xor_ak: u64,
    pub amf: u16,
    pub mac: u64,
}

/// The default authentication management field (separation bit set, per
/// TS 33.401 for EPS vectors).
pub const AMF_EPS: u16 = 0x8000;

/// Generate one vector for `record` bound to `serving_network_id`,
/// incrementing the record's SQN.
pub fn generate_vector(
    record: &mut SubscriberRecord,
    serving_network_id: u64,
    rng: &mut SimRng,
) -> AuthVector {
    record.sqn += 1;
    let sqn = record.sqn;
    let rand = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
    let mac = f1(record.k, rand, sqn, AMF_EPS);
    let xres = f2(record.k, rand);
    let ck = f3(record.k, rand);
    let ik = f4(record.k, rand);
    let ak = f5(record.k, rand);
    let sqn_xor_ak = sqn ^ ak;
    AuthVector {
        rand,
        xres,
        autn: Autn {
            sqn_xor_ak,
            amf: AMF_EPS,
            mac,
        },
        kasme: kasme(ck, ik, serving_network_id, sqn_xor_ak),
    }
}

/// The subscriber database of an HSS (or of a dLTE stub core's local cache).
#[derive(Clone, Debug, Default)]
pub struct SubscriberDb {
    records: BTreeMap<Imsi, SubscriberRecord>,
}

impl SubscriberDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Provision a subscriber. Returns the previous record if replaced.
    pub fn provision(&mut self, imsi: Imsi, k: Key) -> Option<SubscriberRecord> {
        self.records
            .insert(imsi, SubscriberRecord { imsi, k, sqn: 0 })
    }

    pub fn contains(&self, imsi: Imsi) -> bool {
        self.records.contains_key(&imsi)
    }

    /// A subscriber's record, if provisioned.
    pub fn record(&self, imsi: Imsi) -> Option<&SubscriberRecord> {
        self.records.get(&imsi)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mint a vector for `imsi`, or `None` for unknown subscribers.
    pub fn vector_for(
        &mut self,
        imsi: Imsi,
        serving_network_id: u64,
        rng: &mut SimRng,
    ) -> Option<AuthVector> {
        self.records
            .get_mut(&imsi)
            .map(|r| generate_vector(r, serving_network_id, rng))
    }

    /// Resynchronize a subscriber's SQN (after a UE reported SQN failure).
    pub fn resync(&mut self, imsi: Imsi, ue_sqn: u64) -> bool {
        match self.records.get_mut(&imsi) {
            Some(r) => {
                r.sqn = r.sqn.max(ue_sqn);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
// IMSIs group digits as MCC_MNC_MSIN, not thousands.
#[allow(clippy::inconsistent_digit_grouping)]
mod tests {
    use super::*;

    fn record() -> SubscriberRecord {
        SubscriberRecord {
            imsi: 510_89_0000000001,
            k: 0xfeed_f00d_dead_beef_0011_2233_4455_6677,
            sqn: 0,
        }
    }

    #[test]
    fn vector_generation_advances_sqn() {
        let mut r = record();
        let mut rng = SimRng::new(1);
        let v1 = generate_vector(&mut r, 1, &mut rng);
        let v2 = generate_vector(&mut r, 1, &mut rng);
        assert_eq!(r.sqn, 2);
        assert_ne!(v1.rand, v2.rand, "fresh RAND each vector");
        assert_ne!(v1.xres, v2.xres);
    }

    #[test]
    fn xres_matches_usim_computation() {
        let mut r = record();
        let mut rng = SimRng::new(2);
        let v = generate_vector(&mut r, 1, &mut rng);
        assert_eq!(v.xres, f2(r.k, v.rand), "network and SIM agree on RES");
    }

    #[test]
    fn kasme_differs_per_network() {
        let mut r1 = record();
        let mut r2 = record();
        // Same RAND stream, different serving networks.
        let v1 = generate_vector(&mut r1, 310_410, &mut SimRng::new(3));
        let v2 = generate_vector(&mut r2, 310_260, &mut SimRng::new(3));
        assert_eq!(v1.rand, v2.rand);
        assert_ne!(v1.kasme, v2.kasme);
    }

    #[test]
    fn db_provision_and_vector() {
        let mut db = SubscriberDb::new();
        assert!(db.is_empty());
        db.provision(42, 0x1234);
        assert!(db.contains(42));
        assert_eq!(db.len(), 1);
        let mut rng = SimRng::new(4);
        assert!(db.vector_for(42, 1, &mut rng).is_some());
        assert!(db.vector_for(43, 1, &mut rng).is_none());
    }

    #[test]
    fn resync_moves_sqn_forward_only() {
        let mut db = SubscriberDb::new();
        db.provision(42, 0x1234);
        let mut rng = SimRng::new(5);
        for _ in 0..5 {
            db.vector_for(42, 1, &mut rng);
        }
        assert!(db.resync(42, 100));
        let v = db.vector_for(42, 1, &mut rng).unwrap();
        // Next SQN is 101; verify via the MAC recomputation.
        assert_eq!(v.autn.mac, f1(0x1234, v.rand, 101, AMF_EPS));
        // Resync backwards is a no-op.
        assert!(db.resync(42, 3));
        let v2 = db.vector_for(42, 1, &mut rng).unwrap();
        assert_eq!(v2.autn.mac, f1(0x1234, v2.rand, 102, AMF_EPS));
        assert!(!db.resync(999, 1));
    }
}
