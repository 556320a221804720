//! Quickstart: stand up a dLTE access point, attach a stock UE with a
//! published key, and exchange traffic with an Internet service.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dlte::scenario::{Arch, Deployment, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_sim::{SimDuration, SimTime};

fn main() {
    // One AP, one UE. The UE's key is pre-published to the open directory;
    // the AP's local core authenticates it with the standard EPS-AKA
    // handshake — no carrier, no shared EPC.
    let mut net = Deployment::new(Arch::Dlte, 1, 1)
        .with_ue_plan(|_| DltePlan {
            app: UeApp::Pinger {
                dst: Deployment::ott_addr(),
                interval: SimDuration::from_millis(100),
                probe_bytes: 100,
            },
            ..Default::default()
        })
        .build();

    println!("running 10 simulated seconds…\n");
    net.sim.run_until(SimTime::from_secs(10), 10_000_000);

    let ue = net.ue(0);
    let ap = net.aps().next().expect("ap");

    println!("UE state ............ {:?}", ue.state);
    println!(
        "address ............. {} (from the AP's own pool)",
        ue.addr.expect("attached")
    );
    println!(
        "attach latency ...... {:.1} ms (all control stayed at the AP)",
        ue.stats.attach_latency_ms.values()[0]
    );
    println!(
        "echo RTT to 8.8.8.8 . median {:.1} ms over {} pongs (local breakout — no EPC detour)",
        ue.stats.rtt_ms.median(),
        ue.stats.pongs
    );
    println!(
        "AP sessions ......... {} (attach handled by the local core stub)",
        ap.core.active_sessions()
    );
    println!(
        "AP user packets ..... {} up / {} down, all forwarded as native IP",
        ap.core.stats.ul_user_packets, ap.core.stats.dl_user_packets
    );
}
