//! The paper's §5 deployment, in simulation: one band-5 site on the town
//! gym covering the whole town, for under $8,000 in materials.
//!
//! Walks three layers of the reproduction:
//! 1. the bill of materials and coverage economics (Figure 2 / §5);
//! 2. the radio: per-household goodput across the town from the
//!    subframe-accurate cell simulator;
//! 3. the network: the town's UEs attaching to the AP's local core and
//!    using the Internet, data-only with OTT services (as deployed).
//!
//! ```sh
//! cargo run --release --example rural_town
//! ```

use dlte::econ;
use dlte::scenario::{Arch, Deployment, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_mac::{CellConfig, CellSim, UeConfig};
use dlte_sim::{SimDuration, SimRng, SimTime};

fn main() {
    // --- 1. What the site costs and what it covers -----------------------
    let site = econ::Deployment::DlteSite;
    println!("== the site (paper §5) ==");
    for item in site.bom() {
        println!(
            "  {:<32} {:>2} × ${:<8.0} = ${:.0}",
            item.name,
            item.quantity,
            item.unit_usd,
            item.total()
        );
    }
    println!(
        "  total ${:.0} (paper: \"less than $8000 in materials\")",
        site.capex_usd()
    );
    println!(
        "  coverage radius {:.1} km → {:.0} km² from one gym roof\n",
        site.coverage_radius_km(),
        site.coverage_area_km2()
    );

    // --- 2. The radio across the town ------------------------------------
    println!("== per-household goodput (band 5, 10 MHz, rural terrain) ==");
    let distances = [0.2, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0];
    let rng = SimRng::new(42);
    let ues: Vec<UeConfig> = distances.iter().map(|&d| UeConfig::at_km(d)).collect();
    let mut cell = CellSim::new(CellConfig::rural_default(), ues, &rng);
    let report = cell.run(SimDuration::from_secs(2));
    for (i, ue) in report.ues.iter().enumerate() {
        println!(
            "  household at {:>4.1} km: {:>6.2} Mbit/s (mean CQI {:.1})",
            distances[i],
            ue.goodput_bps / 1e6,
            ue.mean_cqi
        );
    }
    println!(
        "  cell aggregate {:.1} Mbit/s shared proportional-fair\n",
        report.aggregate_goodput_bps / 1e6
    );

    // --- 3. The network: data-only, OTT services -------------------------
    println!("== the town online (20 UEs attach; WhatsApp-style echo traffic) ==");
    let mut net = Deployment::new(Arch::Dlte, 1, 20)
        .with_ue_plan(|_| DltePlan {
            app: UeApp::Pinger {
                dst: Deployment::ott_addr(),
                interval: SimDuration::from_millis(500),
                probe_bytes: 300,
            },
            ..Default::default()
        })
        .build();
    net.sim.run_until(SimTime::from_secs(15), 50_000_000);
    let mut attached = 0;
    let mut attach_ms = dlte_sim::stats::Samples::new();
    let mut rtt_ms = dlte_sim::stats::Samples::new();
    for ue in net.ue_nodes() {
        if ue.addr.is_some() {
            attached += 1;
        }
        for &v in ue.stats.attach_latency_ms.values() {
            attach_ms.push(v);
        }
        for &v in ue.stats.rtt_ms.values() {
            rtt_ms.push(v);
        }
    }
    println!("  attached ............ {attached}/20");
    println!("  attach latency ...... mean {:.1} ms", attach_ms.mean());
    println!(
        "  OTT RTT ............. median {:.1} ms / p95 {:.1} ms",
        rtt_ms.median(),
        rtt_ms.p95()
    );
    println!("\nOne site, one stub core, no carrier. That's the dLTE pitch.");
}
