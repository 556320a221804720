//! Control-plane message vocabulary.
//!
//! One enum per interface, mirroring (a useful subset of) the 3GPP
//! procedures: NAS between UE and its core, S1AP-ish between eNB and MME,
//! S11/S5 between MME, S-GW and P-GW, S6a between MME and HSS. Messages ride
//! the packet substrate as [`dlte_net::Payload::control`] payloads with
//! realistic on-wire sizes, so control-plane latency and load are measured,
//! not assumed.

use dlte_auth::vectors::AuthVector;
use dlte_auth::Imsi;
use dlte_net::Addr;

/// Serving-network identifier (PLMN-ish).
pub type SnId = u64;

/// GTP tunnel endpoint id (re-exported for convenience).
pub type Teid = u32;

/// NAS messages (UE ↔ MME / local core).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Nas {
    AttachRequest {
        imsi: Imsi,
        /// The eNB the request entered through (filled by the eNB relay so
        /// the MME knows where to set up the bearer — stands in for the
        /// S1AP transport context).
        via_enb: Addr,
    },
    AuthenticationRequest {
        rand: u128,
        autn: dlte_auth::vectors::Autn,
        sn_id: SnId,
    },
    AuthenticationResponse {
        imsi: Imsi,
        res: u64,
    },
    AuthenticationFailure {
        imsi: Imsi,
        /// SIM's SQN for resynchronization, if this was a sync failure.
        ue_sqn: Option<u64>,
    },
    AttachAccept {
        /// Address assigned to the UE.
        ue_addr: Addr,
    },
    AttachReject {
        imsi: Imsi,
        cause: RejectCause,
    },
    DetachRequest {
        imsi: Imsi,
    },
    /// UE → new eNB when arriving with an existing session (triggers the S1
    /// path-switch handover that preserves `ue_addr`), and from ECM-IDLE to
    /// reactivate at the current eNB.
    ServiceRequest {
        imsi: Imsi,
        ue_addr: Addr,
    },
    /// eNB → UE: the RRC connection was released (the UE is now ECM-IDLE;
    /// it keeps its IP address but must send a service request before
    /// using it again).
    RrcRelease {
        imsi: Imsi,
    },
    /// eNB → UE: the network has downlink data waiting (paging).
    PagingNotify {
        imsi: Imsi,
    },
    /// MME → UE (via eNB): the service request completed; the radio bearer
    /// is restored and the UE may transmit.
    ServiceAccept {
        imsi: Imsi,
    },
    /// Network → UE: the core lost this UE's session (peer failure, gateway
    /// restart). The UE must drop its address and re-attach.
    NetworkDetach {
        imsi: Imsi,
    },
}

/// UE-associated NAS transport (the S1AP relay): NAS between UE and MME is
/// carried by the serving eNB, never IP-routed end-to-end — matching LTE,
/// where a UE has no IP address until attach completes.
#[derive(Clone, Debug)]
pub struct S1Nas {
    pub imsi: Imsi,
    pub nas: Nas,
}

/// Why an attach was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectCause {
    UnknownSubscriber,
    AuthenticationFailed,
    NoResources,
}

/// S1AP-ish messages (eNB ↔ MME).
#[derive(Clone, Debug)]
pub enum S1ap {
    /// MME → eNB: install the UE context (radio route + uplink tunnel).
    InitialContextSetup {
        imsi: Imsi,
        ue_addr: Addr,
        /// Where uplink user traffic goes (S-GW address) and its TEID.
        sgw_addr: Addr,
        teid_ul: Teid,
        /// Downlink TEID this eNB must accept.
        teid_dl: Teid,
    },
    /// eNB → MME after a UE arrives from another eNB (S1 path switch).
    PathSwitchRequest {
        imsi: Imsi,
        ue_addr: Addr,
        new_enb: Addr,
    },
    /// MME → eNB: path switch completed.
    PathSwitchAck { imsi: Imsi },
    /// MME → eNB: tear down the UE context (detach or handover-out).
    UeContextRelease { imsi: Imsi },
    /// eNB → MME: this UE has been inactive; request S1 release (ECM-IDLE).
    UeContextReleaseRequest { imsi: Imsi },
    /// MME → eNB: page the UE (downlink data pending at the S-GW).
    Paging { imsi: Imsi },
}

/// S6a messages (MME ↔ HSS).
#[derive(Clone, Debug)]
pub enum S6a {
    AuthInfoRequest {
        imsi: Imsi,
        sn_id: SnId,
        /// Resync the subscriber's SQN first (after a UE sync failure).
        resync_sqn: Option<u64>,
    },
    AuthInfoAnswer {
        imsi: Imsi,
        vector: Option<AuthVector>,
    },
}

/// S11/S5 messages (MME ↔ S-GW ↔ P-GW).
#[derive(Clone, Debug)]
pub enum Gtpc {
    CreateSessionRequest {
        imsi: Imsi,
        /// eNB endpoint for the downlink data path.
        enb_addr: Addr,
        teid_dl_enb: Teid,
    },
    CreateSessionResponse {
        imsi: Imsi,
        ue_addr: Addr,
        /// Uplink tunnel endpoint at the S-GW for the eNB to use.
        sgw_addr: Addr,
        teid_ul_sgw: Teid,
    },
    /// MME → S-GW on path switch: move the downlink tunnel to a new eNB.
    ModifyBearerRequest {
        imsi: Imsi,
        new_enb_addr: Addr,
        teid_dl_enb: Teid,
    },
    ModifyBearerResponse {
        imsi: Imsi,
    },
    DeleteSessionRequest {
        imsi: Imsi,
    },
    /// MME → S-GW on S1 release: drop the eNB-side tunnel; buffer downlink
    /// and raise a notification when data arrives.
    ReleaseAccessBearers {
        imsi: Imsi,
    },
    /// S-GW → MME: downlink data arrived for an idle UE (trigger paging).
    DownlinkDataNotification {
        imsi: Imsi,
    },
}

/// S5 messages (S-GW ↔ P-GW).
#[derive(Clone, Debug)]
pub enum S5 {
    CreateRequest {
        imsi: Imsi,
        sgw_addr: Addr,
        /// Downlink tunnel endpoint at the S-GW the P-GW must target.
        teid_dl_sgw: Teid,
    },
    CreateResponse {
        imsi: Imsi,
        ue_addr: Addr,
        pgw_addr: Addr,
        /// Uplink tunnel endpoint at the P-GW the S-GW must target.
        teid_ul_pgw: Teid,
    },
    DeleteRequest {
        imsi: Imsi,
        ue_addr: Addr,
    },
}

/// Approximate on-wire sizes, bytes (headers + typical IE payloads). Used so
/// control traffic loads links honestly.
pub mod wire {
    /// NAS attach request (ESM + EMM IEs).
    pub const ATTACH_REQUEST: u32 = 120;
    pub const AUTH_REQUEST: u32 = 140;
    pub const AUTH_RESPONSE: u32 = 100;
    pub const AUTH_FAILURE: u32 = 100;
    pub const ATTACH_ACCEPT: u32 = 150;
    pub const ATTACH_REJECT: u32 = 90;
    pub const DETACH: u32 = 80;
    pub const NETWORK_DETACH: u32 = 80;
    pub const S1AP_CONTEXT: u32 = 180;
    pub const S1AP_PATH_SWITCH: u32 = 140;
    pub const S1AP_RELEASE: u32 = 100;
    pub const PAGING: u32 = 90;
    pub const S6A_REQUEST: u32 = 150;
    pub const S6A_ANSWER: u32 = 220;
    pub const GTPC: u32 = 180;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_net::{Packet, Payload};
    use dlte_sim::SimTime;

    #[test]
    fn messages_survive_packet_round_trip() {
        let msg = Nas::AttachRequest {
            imsi: 42,
            via_enb: Addr::new(10, 0, 0, 1),
        };
        let p = Packet::new(
            1,
            Addr::new(1, 1, 1, 1),
            Addr::new(2, 2, 2, 2),
            wire::ATTACH_REQUEST,
            SimTime::ZERO,
        )
        .with_payload(Payload::control(msg));
        match p.payload.as_control::<Nas>() {
            Some(Nas::AttachRequest { imsi, via_enb }) => {
                assert_eq!(*imsi, 42);
                assert_eq!(*via_enb, Addr::new(10, 0, 0, 1));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Different interface types don't cross-decode.
        assert!(p.payload.as_control::<S1ap>().is_none());
        assert!(p.payload.as_control::<Gtpc>().is_none());
    }

    #[test]
    fn wire_sizes_are_plausible() {
        // All control messages are small relative to an MTU.
        for s in [
            wire::ATTACH_REQUEST,
            wire::AUTH_REQUEST,
            wire::AUTH_RESPONSE,
            wire::ATTACH_ACCEPT,
            wire::S1AP_CONTEXT,
            wire::S6A_REQUEST,
            wire::S6A_ANSWER,
            wire::GTPC,
        ] {
            assert!((60..600).contains(&s), "size {s}");
        }
    }
}
