//! The published-key directory — dLTE's open authentication substrate.
//!
//! §4.2: *"users can simply pre-publish their keys to allow any associated
//! dLTE AP to authenticate with them."* The directory is a public mapping
//! IMSI → K that every dLTE AP consults when an unknown subscriber attaches.
//! Publishing deliberately forfeits link-layer confidentiality (the paper is
//! explicit about this trade: honeypots become easy; applications must use
//! end-to-end security), but preserves *mutual* authentication mechanics so
//! unmodified UEs work.

use crate::vectors::SubscriberRecord;
use crate::{Imsi, Key};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A public IMSI → key directory.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PublishedKeyDirectory {
    keys: BTreeMap<Imsi, Key>,
    /// Lookup counter — the E9 scaling experiment tracks directory load.
    pub lookups: u64,
}

impl PublishedKeyDirectory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish (or re-publish) a subscriber key.
    pub fn publish(&mut self, imsi: Imsi, k: Key) {
        self.keys.insert(imsi, k);
    }

    /// Revoke a published key (the subscriber rotates identities). Returns
    /// whether it was present.
    pub fn revoke(&mut self, imsi: Imsi) -> bool {
        self.keys.remove(&imsi).is_some()
    }

    /// Look up a published key.
    pub fn lookup(&mut self, imsi: Imsi) -> Option<Key> {
        self.lookups += 1;
        self.keys.get(&imsi).copied()
    }

    /// Build a fresh HSS-style record an AP can mint vectors from. The AP
    /// starts at SQN 0 and relies on the AKA resync procedure if the SIM is
    /// ahead (which it will be after visiting other APs — see the resync
    /// test in [`crate::usim`]).
    pub fn record_for(&mut self, imsi: Imsi) -> Option<SubscriberRecord> {
        self.lookup(imsi)
            .map(|k| SubscriberRecord { imsi, k, sqn: 0 })
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usim::{AkaError, Usim};
    use crate::vectors::generate_vector;
    use dlte_sim::SimRng;

    #[test]
    fn publish_lookup_revoke() {
        let mut dir = PublishedKeyDirectory::new();
        dir.publish(7, 0x77);
        assert_eq!(dir.lookup(7), Some(0x77));
        assert_eq!(dir.lookup(8), None);
        assert_eq!(dir.lookups, 2);
        assert!(dir.revoke(7));
        assert!(!dir.revoke(7));
        assert_eq!(dir.lookup(7), None);
    }

    #[test]
    fn two_aps_serially_authenticate_same_sim_via_resync() {
        // The roaming story: SIM attaches at AP1, then at AP2. Both APs read
        // the directory independently; AP2's SQN starts stale and recovers
        // via resync — this sequence is the crux of multi-AP open auth.
        let mut dir = PublishedKeyDirectory::new();
        let mut sim = Usim::new(1001, 0xABCD);
        dir.publish(1001, sim.published_key());
        let mut rng = SimRng::new(20);

        // AP1.
        let mut rec1 = dir.record_for(1001).expect("published");
        let v = generate_vector(&mut rec1, 1, &mut rng);
        sim.authenticate(v.rand, v.autn, 1).expect("AP1 auth");

        // AP2: first attempt hits sync failure, resyncs, succeeds.
        let mut rec2 = dir.record_for(1001).expect("published");
        let v = generate_vector(&mut rec2, 2, &mut rng);
        match sim.authenticate(v.rand, v.autn, 2) {
            Err(AkaError::SyncFailure { ue_sqn }) => {
                rec2.sqn = rec2.sqn.max(ue_sqn);
                let v = generate_vector(&mut rec2, 2, &mut rng);
                sim.authenticate(v.rand, v.autn, 2).expect("post-resync");
            }
            Ok(_) => panic!("expected stale SQN at AP2"),
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn unpublished_sim_cannot_be_served() {
        let mut dir = PublishedKeyDirectory::new();
        assert!(dir.record_for(404).is_none());
    }
}
