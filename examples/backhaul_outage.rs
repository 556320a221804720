//! Emergency backhaul redundancy — the paper's §7 future-work idea, live.
//!
//! Two village APs share a mesh link. Mid-run, AP0's backhaul is cut
//! (storm, backhoe, VSAT outage). Watch AP0 detect the failure with its
//! beacon probes and re-point its egress through AP1, while the wide-area
//! routing reconverges the return path.
//!
//! ```sh
//! cargo run --release --example backhaul_outage
//! ```

use dlte::scenario::{DlteNetworkBuilder, DltePlan};
use dlte::DlteApNode;
use dlte_epc::ue::{UeApp, UeNode};
use dlte_net::{NetFault, Prefix};
use dlte_sim::{SimDuration, SimTime};

fn main() {
    let mut b = DlteNetworkBuilder::new(2, 1);
    b.mesh = true; // provision the inter-AP link + failover (§7)
    let mut net = b
        .with_ue_plan(|_| DltePlan {
            app: UeApp::Pinger {
                dst: DlteNetworkBuilder::ott_addr(),
                interval: SimDuration::from_millis(100),
                probe_bytes: 100,
            },
            ..Default::default()
        })
        .build();

    // The fault: AP0's backhaul dies at t=5 s; the regional IGP reconverges
    // the downlink toward AP0's pool two seconds later.
    let ap0_addr = net.sim.node_addrs(net.aps[0])[0];
    let fail = SimTime::from_secs(5);
    let reconverge = SimTime::from_secs(7);
    net.sim.schedule_fault_broadcast(
        fail,
        NetFault::LinkUp {
            link: net.ap_backhaul[0],
            up: false,
        },
    );
    for prefix in [DlteNetworkBuilder::ap_pool(0), Prefix::new(ap0_addr, 32)] {
        let reroutes = [
            (net.r_agg, net.ap_backhaul[1]),
            (net.aps[1], net.ap_mesh[0]),
        ];
        for (node, link) in reroutes {
            net.sim
                .schedule_fault_broadcast(reconverge, NetFault::RouteSet { node, prefix, link });
        }
    }

    println!("t=5s: AP0's backhaul will be cut. Watching the client on AP0…\n");
    let mut last_pongs = 0;
    for second in 1..=15u64 {
        net.sim.run_until(SimTime::from_secs(second), 100_000_000);
        let w = &net.sim;
        let ue = w.handler_as::<UeNode>(net.ues[0]).unwrap();
        let ap0 = w.handler_as::<DlteApNode>(net.aps[0]).unwrap();
        let rate = ue.stats.pongs - last_pongs;
        last_pongs = ue.stats.pongs;
        let status = match (second, ap0.failover.as_ref().map(|f| f.failed_over)) {
            (..=5, _) => "backhaul up",
            (_, Some(true)) => "FAILED OVER via mesh",
            _ => "backhaul DOWN, probing…",
        };
        println!("  t={second:>2}s  pongs this second: {rate:>2}/10   [{status}]");
    }
    let w = &net.sim;
    let ue = w.handler_as::<UeNode>(net.ues[0]).unwrap();
    let ap0 = w.handler_as::<DlteApNode>(net.aps[0]).unwrap();
    let fo = ap0.failover.as_ref().unwrap();
    println!(
        "\nfailover at {} (probe deadline after the cut); total pongs {}/150",
        fo.failed_over_at
            .map(|t| t.to_string())
            .unwrap_or_else(|| "never".into()),
        ue.stats.pongs
    );
    println!(
        "\n§7: mesh links \"could provide redundancy for users in emergencies\nwhen the backhaul link goes down\" — outage bounded, service restored."
    );
}
