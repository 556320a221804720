//! Roaming across independently owned dLTE APs: the §4.2 mobility story.
//!
//! A client walks between two APs run by different owners. Each time it
//! arrives it gets a *new address* from that AP's pool — and its modern
//! transport connection (connection IDs + 0-RTT + FEC) just keeps going.
//!
//! ```sh
//! cargo run --release --example roaming_client
//! ```

use dlte::scenario::{Arch, Deployment, DltePlan};
use dlte::TransportUeApp;
use dlte_epc::ue::UeApp;
use dlte_sim::SimTime;
use dlte_transport::connection::TransportConfig;

fn main() {
    // The client hops AP0 → AP1 → AP0 → AP1, dwelling 4 s each.
    let schedule = vec![
        (SimTime::from_secs(4), 1),
        (SimTime::from_secs(8), 0),
        (SimTime::from_secs(12), 1),
    ];
    let mut d = Deployment::new(Arch::Dlte, 2, 1).with_ue_plan(move |i| DltePlan {
        app: if i == 0 {
            UeApp::Upper(Box::new(TransportUeApp::new(
                TransportConfig::modern(),
                Deployment::ott_transport_addr(),
            )))
        } else {
            UeApp::None
        },
        schedule: if i == 0 { schedule.clone() } else { vec![] },
    });
    d.wire_all_cells = true;
    let mut net = d.build();

    println!("client uploads continuously while hopping APs every 4 s…\n");
    net.sim.run_until(SimTime::from_secs(16), 100_000_000);

    let ue = net.ue(0);
    let app = ue.upper_as::<TransportUeApp>().unwrap();

    println!(
        "attaches completed .... {} (one per AP visit)",
        ue.stats.attaches_completed
    );
    println!(
        "current address ....... {} (pool of the AP it's on *now*)",
        ue.addr.expect("attached")
    );
    println!(
        "transport handshakes .. {} — the connection ID survived every address change",
        app.conn.handshakes
    );
    println!(
        "bytes acknowledged .... {:.1} MB over the whole walk",
        app.conn.acked_bytes() as f64 / 1e6
    );
    print!("resume after each hop . ");
    for v in app.resume_ms.values() {
        print!("{v:.0} ms  ");
    }
    println!();
    println!(
        "\nNo MME moved any tunnel. The endpoints handled it — \"service\ncontinuity [left] to endpoint transport and application layers\" (§4.2)."
    );
}
