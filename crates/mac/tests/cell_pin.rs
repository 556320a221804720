//! Bit-for-bit pin of `CellSim` on the paths no experiment table reaches.
//!
//! Every experiment runs its cells with shadowing off and (mostly) the PF
//! scheduler, so the goldens would not notice a change to the fading path,
//! the uplink timing-advance penalty, interference, CBR drain, TDM/PRB
//! sharing or the RR and Max C/I schedulers. This test runs one cell that
//! exercises all of them, once per scheduler and direction, and compares
//! every per-UE count and every report `f64` by its bits.
//!
//! To regenerate after an intended model change, run
//! `cargo test -p dlte-mac --test cell_pin -- --nocapture` and paste the
//! printed arrays.

use dlte_mac::lte::cell::{CellReport, Direction, Traffic};
use dlte_mac::{CellConfig, CellSim, SchedulerKind, UeConfig};
use dlte_phy::fading::ShadowingConfig;
use dlte_sim::{SimDuration, SimRng};

fn ues() -> Vec<UeConfig> {
    let mut near = UeConfig::at_km(0.8);
    near.interference_dbm = -105.0;
    let mut cbr = UeConfig::at_km(2.5);
    cbr.traffic = Traffic::Cbr { bps: 3e6 };
    cbr.interference_dbm = -100.0;
    let mut mid = UeConfig::at_km(4.0);
    mid.interference_dbm = -95.0;
    let far = UeConfig::at_km(7.0);
    let mut slow_cbr = UeConfig::at_km(1.5);
    slow_cbr.traffic = Traffic::Cbr { bps: 250e3 };
    vec![near, cbr, mid, far, slow_cbr]
}

fn config(scheduler: SchedulerKind, direction: Direction) -> CellConfig {
    let mut cfg = CellConfig::rural_default();
    cfg.scheduler = scheduler;
    cfg.direction = direction;
    // Slow (AR(1), fast decorrelation so it moves within the run) plus
    // fast Gaussian fading.
    cfg.shadowing = ShadowingConfig {
        sigma_db: 6.0,
        decorrelation_s: 0.05,
        fast_sigma_db: 2.0,
    };
    // TA off: uplink arrivals from past ~0.7 km overrun the cyclic prefix.
    cfg.timing_advance = false;
    cfg.tdm_share = 0.5;
    cfg.masked_prb = 10;
    cfg
}

/// Every number in the report, `f64`s as their bits: six per UE (served,
/// delivered bits, goodput, mean SINR, mean CQI, scheduled fraction), then
/// aggregate goodput, Jain index, grid utilization and duration.
fn fingerprint(r: &CellReport) -> Vec<u64> {
    let mut v = Vec::new();
    for u in &r.ues {
        v.extend([
            u.served as u64,
            u.delivered_bits,
            u.goodput_bps.to_bits(),
            u.mean_sinr_db.to_bits(),
            u.mean_cqi.to_bits(),
            u.scheduled_fraction.to_bits(),
        ]);
    }
    v.extend([
        r.aggregate_goodput_bps.to_bits(),
        r.jain_fairness.to_bits(),
        r.mean_grid_utilization.to_bits(),
        r.duration.as_nanos(),
    ]);
    v
}

fn check(scheduler: SchedulerKind, direction: Direction, expected: &[u64]) {
    let rng = SimRng::new(2024);
    let mut sim = CellSim::new(config(scheduler, direction), ues(), &rng);
    let report = sim.run(SimDuration::from_millis(1500));
    let got = fingerprint(&report);
    println!("{scheduler:?} {direction:?}: {got:?}");
    // Delivered bits first: a readable failure before the raw bit patterns.
    let delivered: Vec<u64> = report.ues.iter().map(|u| u.delivered_bits).collect();
    let want_delivered: Vec<u64> = expected
        .chunks(6)
        .take(report.ues.len())
        .map(|c| c[1])
        .collect();
    assert_eq!(
        delivered, want_delivered,
        "{scheduler:?} {direction:?} delivered bits"
    );
    assert_eq!(got, expected, "{scheduler:?} {direction:?} report bits");
}

#[rustfmt::skip]
#[test]
fn round_robin_downlink() {
    check(SchedulerKind::RoundRobin, Direction::Downlink, &[
        1, 5661894, 4705360294535233536, 4632806431533805124, 4624633867356078080, 4602678819172646912,
        1, 4498247, 4703694352598870699, 4630515451948647858, 4624633116756140185, 4602678819172646912,
        1, 5001979, 4704415523420853589, 4627705566812408772, 4624309608182907404, 4602678819172646912,
        1, 4723350, 4704016622606614528, 4628141324743861704, 4624429704172970618, 4602678819172646912,
        1, 375000, 4687829947429945344, 4632638235482848604, 4624633867356078080, 4602678819172646912,
        4713513115273134080, 4605587551361009810, 4607182418800017408, 1500000000,
    ]);
}

#[rustfmt::skip]
#[test]
fn round_robin_uplink() {
    check(SchedulerKind::RoundRobin, Direction::Uplink, &[
        1, 7377051, 4707038709772451840, 4630453824243113254, 4624633867356078080, 4602678819172646912,
        1, 3242062, 4701895928101295445, 4623754047394476682, 4621867155984996805, 4602678819172646912,
        1, 299753, 4686106302607960747, 13838609185395452700, 4611818124016457439, 4600661206539584930,
        1, 102047, 4679411490838893909, 13843518576077740676, 4605753276518265171, 4597142394030732782,
        1, 375000, 4687829947429945344, 4629787529506887216, 4624625610756761234, 4602678819172646912,
        4709915523248641364, 4600850918991011902, 4607182418800017408, 1500000000,
    ]);
}

#[rustfmt::skip]
#[test]
fn proportional_fair_downlink() {
    check(SchedulerKind::ProportionalFair, Direction::Downlink, &[
        1, 5265561, 4704792882110791680, 4632806431533805124, 4624633867356078080, 4602678819172646912,
        1, 4499999, 4703696860859771563, 4630515451948647858, 4624633116756140185, 4602678819172646912,
        1, 4904642, 4704276170343623339, 4627705566812408772, 4624309608182907404, 4602678819172646912,
        1, 5033656, 4704460873980532053, 4628141324743861704, 4624429704172970618, 4602678819172646912,
        1, 375000, 4687829947429945344, 4632638235482848604, 4624633867356078080, 4602678819172646912,
        4713448113806420651, 4605623376650016765, 4607182418800017408, 1500000000,
    ]);
}

#[rustfmt::skip]
#[test]
fn proportional_fair_uplink() {
    check(SchedulerKind::ProportionalFair, Direction::Uplink, &[
        1, 6606804, 4706487345493311488, 4630453824243113254, 4624633867356078080, 4602678819172646912,
        1, 3383867, 4702098944047098539, 4623754047394476682, 4621867155984996805, 4602642790375627948,
        1, 338761, 4686999839057466709, 13838609185395452700, 4611818124016457439, 4600625177742565966,
        1, 126522, 4680532763634302976, 13843518576077740676, 4605753276518265171, 4597142394030732782,
        1, 375000, 4687829947429945344, 4629787529506887216, 4624625610756761234, 4602678819172646912,
        4709511109843877889, 4601304606330733824, 4607182418800017408, 1500000000,
    ]);
}

#[rustfmt::skip]
#[test]
fn max_ci_downlink() {
    check(SchedulerKind::MaxCi, Direction::Downlink, &[
        1, 20969994, 4713767063804444672, 4632806431533805124, 4624633867356078080, 4602678819172646912,
        1, 0, 0, 4630515451948647858, 4624633116756140185, 0,
        1, 0, 0, 4627705566812408772, 4624309608182907404, 0,
        1, 0, 0, 4628141324743861704, 4624429704172970618, 0,
        1, 0, 0, 4632638235482848604, 4624633867356078080, 0,
        4713767063804444672, 4596373779694328218, 4607182418800017408, 1500000000,
    ]);
}

#[rustfmt::skip]
#[test]
fn max_ci_uplink() {
    check(SchedulerKind::MaxCi, Direction::Uplink, &[
        1, 20968958, 4713766693005601451, 4630453824243113254, 4624633867356078080, 4602678819172646912,
        1, 0, 0, 4623754047394476682, 4621867155984996805, 0,
        1, 0, 0, 13838609185395452700, 4611818124016457439, 0,
        1, 0, 0, 13843518576077740676, 4605753276518265171, 0,
        1, 0, 0, 4629787529506887216, 4624625610756761234, 0,
        4713766693005601451, 4596373779694328218, 4607182418800017408, 1500000000,
    ]);
}
