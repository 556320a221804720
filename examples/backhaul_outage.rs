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

use dlte::scenario::{Arch, Deployment, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_net::{NetFault, Prefix};
use dlte_sim::{SimDuration, SimTime};

fn main() {
    let mut d = Deployment::new(Arch::Dlte, 2, 1).with_ue_plan(|_| DltePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval: SimDuration::from_millis(100),
            probe_bytes: 100,
        },
        ..Default::default()
    });
    d.mesh = true; // provision the inter-AP link + failover (§7)
    let mut net = d.build();

    // The fault: AP0's backhaul dies at t=5 s; the regional IGP reconverges
    // the downlink toward AP0's pool two seconds later.
    let ap0_addr = net.sim.node_addrs(net.cells[0])[0];
    let fail = SimTime::from_secs(5);
    let reconverge = SimTime::from_secs(7);
    net.sim.schedule_fault_broadcast(
        fail,
        NetFault::LinkUp {
            link: net.cell_backhaul[0],
            up: false,
        },
    );
    for prefix in [Deployment::ap_pool(0), Prefix::new(ap0_addr, 32)] {
        let reroutes = [
            (net.r_agg, net.cell_backhaul[1]),
            (net.cells[1], net.mesh[0]),
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
        let ue = net.ue(0);
        let ap0 = net.aps().next().unwrap();
        let rate = ue.stats.pongs - last_pongs;
        last_pongs = ue.stats.pongs;
        let status = match (second, ap0.failover.as_ref().map(|f| f.failed_over)) {
            (..=5, _) => "backhaul up",
            (_, Some(true)) => "FAILED OVER via mesh",
            _ => "backhaul DOWN, probing…",
        };
        println!("  t={second:>2}s  pongs this second: {rate:>2}/10   [{status}]");
    }
    let ue = net.ue(0);
    let ap0 = net.aps().next().unwrap();
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
