//! The §4.2 trust boundary between a carrier-secured identity and an open
//! dLTE identity, end to end across the auth stack: each authenticates
//! only where its trust model says it should, and publishing one key does
//! not weaken the other.

use dlte_auth::open::PublishedKeyDirectory;
use dlte_auth::usim::{AkaError, Usim};
use dlte_auth::vectors::{generate_vector, SubscriberDb, SubscriberRecord};
use dlte_sim::SimRng;

const CARRIER_NET: u64 = 51_089;
const DLTE_NET: u64 = 42_000;
const CARRIER_IMSI: u64 = 510_890_000_001;
const OPEN_IMSI: u64 = 990_000_001;
const CARRIER_KEY: u128 = 0xC0FFEE;
const OPEN_KEY: u128 = 0x0D17E;

#[test]
fn trust_boundaries_hold() {
    let mut rng = SimRng::new(3);
    let mut dir = PublishedKeyDirectory::new();
    dir.publish(OPEN_IMSI, OPEN_KEY);
    let mut hss = SubscriberDb::new();
    hss.provision(CARRIER_IMSI, CARRIER_KEY);

    // A dLTE AP cannot serve the carrier identity: its key was never
    // published, so the directory has nothing to mint vectors from.
    assert!(dir.record_for(CARRIER_IMSI).is_none());

    // The carrier cannot serve the open identity: its HSS never provisioned
    // that IMSI.
    assert!(hss.vector_for(OPEN_IMSI, CARRIER_NET, &mut rng).is_none());

    // A USIM holding the open key authenticates at any dLTE AP from the
    // published record; the second AP starts stale and may need a resync.
    let mut open = Usim::new(OPEN_IMSI, OPEN_KEY);
    for ap_net in [DLTE_NET, DLTE_NET + 7] {
        let mut rec = dir.record_for(OPEN_IMSI).expect("published");
        let v = generate_vector(&mut rec, ap_net, &mut rng);
        match open.authenticate(v.rand, v.autn, ap_net) {
            Ok(resp) => assert_eq!(resp.res, v.xres),
            Err(AkaError::SyncFailure { ue_sqn }) => {
                rec.sqn = rec.sqn.max(ue_sqn);
                let v = generate_vector(&mut rec, ap_net, &mut rng);
                let resp = open
                    .authenticate(v.rand, v.autn, ap_net)
                    .expect("post-resync");
                assert_eq!(resp.res, v.xres);
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    // A *malicious* AP guessing at the carrier key fails MAC verification
    // at the SIM: publishing one identity does not weaken the other.
    let mut carrier = Usim::new(CARRIER_IMSI, CARRIER_KEY);
    let mut fake = SubscriberRecord {
        imsi: CARRIER_IMSI,
        k: OPEN_KEY, // attacker only knows the published key
        sqn: 0,
    };
    let v = generate_vector(&mut fake, CARRIER_NET, &mut rng);
    assert_eq!(
        carrier.authenticate(v.rand, v.autn, CARRIER_NET),
        Err(AkaError::MacFailure)
    );
}
