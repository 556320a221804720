//! The E-UTRA operating band table (3GPP TS 36.101 §5.5) plus the ISM bands
//! WiFi uses, so LTE and WiFi links can be built from one vocabulary.
//!
//! The paper's spectrum argument (§3.2) is that LTE's ~forty bands let a
//! rural operator pick frequencies with better propagation and higher
//! allowed power than the 2.4/5 GHz ISM bands — it names band 5 (850 MHz,
//! used by the Papua deployment), band 30 (800 MHz TV white space in the
//! paper's description) and band 31 (450 MHz). This module encodes a
//! representative slice of the table: every band the paper mentions, the
//! common FDD capacity bands, TDD bands, the unlicensed coexistence bands
//! (46/MulteFire) and CBRS (48), and the two ISM bands.

use serde::{Deserialize, Serialize};

/// Duplexing scheme of a band.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Duplex {
    /// Frequency-division duplex: paired uplink/downlink ranges.
    Fdd,
    /// Time-division duplex: one shared range.
    Tdd,
}

/// Regulatory class of a band — the axis of the paper's Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BandClass {
    /// Exclusively licensed spectrum (traditional cellular).
    Licensed,
    /// License-by-rule / shared access (e.g. CBRS with a SAS).
    SharedLicensed,
    /// Unlicensed (ISM, 5 GHz U-NII).
    Unlicensed,
}

/// One operating band.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Band {
    /// E-UTRA band number, or a synthetic id ≥ 1000 for the WiFi ISM entries.
    pub number: u16,
    /// Human-readable name.
    pub name: &'static str,
    /// Uplink range in MHz (for TDD, equals the downlink range).
    pub uplink_mhz: (f64, f64),
    /// Downlink range in MHz.
    pub downlink_mhz: (f64, f64),
    pub duplex: Duplex,
    pub class: BandClass,
    /// Typical maximum base-station/AP EIRP permitted, dBm. For licensed
    /// rural macro bands this reflects common macro eNodeB practice; for
    /// unlicensed bands it is the regulatory EIRP cap (e.g. FCC 15.247).
    pub max_bs_eirp_dbm: f64,
    /// Maximum client transmit power, dBm (LTE power class 3 is 23 dBm).
    pub max_ue_power_dbm: f64,
}

impl Band {
    /// Center of the downlink range, MHz.
    pub fn downlink_center_mhz(&self) -> f64 {
        (self.downlink_mhz.0 + self.downlink_mhz.1) / 2.0
    }

    /// Center of the uplink range, MHz.
    pub fn uplink_center_mhz(&self) -> f64 {
        (self.uplink_mhz.0 + self.uplink_mhz.1) / 2.0
    }

    /// Width of the downlink allocation, MHz.
    pub fn downlink_width_mhz(&self) -> f64 {
        self.downlink_mhz.1 - self.downlink_mhz.0
    }

    /// True if a deployment in this band requires a license grant (and can
    /// therefore appear in the dLTE registry as an enforceable entry).
    pub fn requires_license(&self) -> bool {
        !matches!(self.class, BandClass::Unlicensed)
    }

    /// Look up a band by number. ISM pseudo-bands use 1024 (2.4 GHz) and
    /// 1051 (5 GHz).
    pub fn by_number(number: u16) -> Option<&'static Band> {
        BAND_TABLE.iter().find(|b| b.number == number)
    }

    /// The full table.
    pub fn all() -> &'static [Band] {
        BAND_TABLE
    }
}

/// Convenience accessors for the bands the paper names.
impl Band {
    /// Band 5 (850 MHz cellular) — the Papua deployment band (§5).
    pub fn band5() -> &'static Band {
        Band::by_number(5).expect("band 5 in table")
    }

    /// Band 31 (450 MHz) — the longest-range band the paper mentions.
    pub fn band31() -> &'static Band {
        Band::by_number(31).expect("band 31 in table")
    }

    /// 2.4 GHz ISM pseudo-band (WiFi baseline).
    pub fn ism24() -> &'static Band {
        Band::by_number(1024).expect("ISM 2.4 in table")
    }

    /// 5 GHz ISM/U-NII pseudo-band (WiFi baseline).
    pub fn ism5() -> &'static Band {
        Band::by_number(1051).expect("ISM 5 in table")
    }
}

/// Representative slice of TS 36.101 Table 5.5-1 plus ISM pseudo-bands.
///
/// EIRP columns: licensed macro bands assume a 43 dBm (20 W) PA with a
/// 15 dBi sector antenna ≈ 58 dBm EIRP ceiling, which we cap at a typical
/// licensed rural figure of 55 dBm; ISM bands use the FCC point-to-multipoint
/// cap of 36 dBm EIRP (30 dBm + 6 dBi).
static BAND_TABLE: &[Band] = &[
    Band {
        number: 1,
        name: "2100 IMT",
        uplink_mhz: (1920.0, 1980.0),
        downlink_mhz: (2110.0, 2170.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 2,
        name: "1900 PCS",
        uplink_mhz: (1850.0, 1910.0),
        downlink_mhz: (1930.0, 1990.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 3,
        name: "1800 DCS",
        uplink_mhz: (1710.0, 1785.0),
        downlink_mhz: (1805.0, 1880.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 5,
        name: "850 Cellular (CLR)",
        uplink_mhz: (824.0, 849.0),
        downlink_mhz: (869.0, 894.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 7,
        name: "2600 IMT-E",
        uplink_mhz: (2500.0, 2570.0),
        downlink_mhz: (2620.0, 2690.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 8,
        name: "900 GSM",
        uplink_mhz: (880.0, 915.0),
        downlink_mhz: (925.0, 960.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 12,
        name: "700 Lower SMH",
        uplink_mhz: (699.0, 716.0),
        downlink_mhz: (729.0, 746.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 20,
        name: "800 EU Digital Dividend",
        uplink_mhz: (832.0, 862.0),
        downlink_mhz: (791.0, 821.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 28,
        name: "700 APT",
        uplink_mhz: (703.0, 748.0),
        downlink_mhz: (758.0, 803.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 30,
        name: "2300 WCS / 800 TVWS (paper usage)",
        uplink_mhz: (2305.0, 2315.0),
        downlink_mhz: (2350.0, 2360.0),
        duplex: Duplex::Fdd,
        class: BandClass::SharedLicensed,
        max_bs_eirp_dbm: 50.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 31,
        name: "450 NMT",
        uplink_mhz: (452.5, 457.5),
        downlink_mhz: (462.5, 467.5),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 38,
        name: "2600 TDD",
        uplink_mhz: (2570.0, 2620.0),
        downlink_mhz: (2570.0, 2620.0),
        duplex: Duplex::Tdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 40,
        name: "2300 TDD",
        uplink_mhz: (2300.0, 2400.0),
        downlink_mhz: (2300.0, 2400.0),
        duplex: Duplex::Tdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 41,
        name: "2500 BRS/EBS TDD",
        uplink_mhz: (2496.0, 2690.0),
        downlink_mhz: (2496.0, 2690.0),
        duplex: Duplex::Tdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 46,
        name: "5 GHz LAA/MulteFire",
        uplink_mhz: (5150.0, 5925.0),
        downlink_mhz: (5150.0, 5925.0),
        duplex: Duplex::Tdd,
        class: BandClass::Unlicensed,
        max_bs_eirp_dbm: 36.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 48,
        name: "3.5 GHz CBRS",
        uplink_mhz: (3550.0, 3700.0),
        downlink_mhz: (3550.0, 3700.0),
        duplex: Duplex::Tdd,
        class: BandClass::SharedLicensed,
        max_bs_eirp_dbm: 47.0,
        max_ue_power_dbm: 23.0,
    },
    Band {
        number: 71,
        name: "600 Digital Dividend",
        uplink_mhz: (663.0, 698.0),
        downlink_mhz: (617.0, 652.0),
        duplex: Duplex::Fdd,
        class: BandClass::Licensed,
        max_bs_eirp_dbm: 55.0,
        max_ue_power_dbm: 23.0,
    },
    // WiFi ISM pseudo-bands.
    Band {
        number: 1024,
        name: "2.4 GHz ISM (WiFi)",
        uplink_mhz: (2400.0, 2483.5),
        downlink_mhz: (2400.0, 2483.5),
        duplex: Duplex::Tdd,
        class: BandClass::Unlicensed,
        max_bs_eirp_dbm: 36.0,
        max_ue_power_dbm: 20.0,
    },
    Band {
        number: 1051,
        name: "5 GHz U-NII (WiFi)",
        uplink_mhz: (5150.0, 5850.0),
        downlink_mhz: (5150.0, 5850.0),
        duplex: Duplex::Tdd,
        class: BandClass::Unlicensed,
        max_bs_eirp_dbm: 36.0,
        max_ue_power_dbm: 20.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bands_present() {
        let b5 = Band::band5();
        assert_eq!(b5.number, 5);
        assert!((b5.downlink_center_mhz() - 881.5).abs() < 1e-9);
        assert_eq!(b5.duplex, Duplex::Fdd);
        assert!(b5.requires_license());

        let b31 = Band::band31();
        assert!(b31.downlink_center_mhz() < 500.0);
        assert!(Band::by_number(30).is_some());
    }

    #[test]
    fn ism_bands_are_unlicensed() {
        assert!(!Band::ism24().requires_license());
        assert!(!Band::ism5().requires_license());
        assert_eq!(Band::ism24().class, BandClass::Unlicensed);
    }

    #[test]
    fn fdd_bands_have_disjoint_paired_ranges() {
        for b in Band::all().iter().filter(|b| b.duplex == Duplex::Fdd) {
            let (ul, dl) = (b.uplink_mhz, b.downlink_mhz);
            assert!(ul.0 < ul.1 && dl.0 < dl.1, "band {} malformed", b.number);
            let overlap = ul.0 < dl.1 && dl.0 < ul.1;
            assert!(!overlap, "band {} UL/DL overlap", b.number);
        }
    }

    #[test]
    fn tdd_bands_share_range() {
        for b in Band::all().iter().filter(|b| b.duplex == Duplex::Tdd) {
            assert_eq!(b.uplink_mhz, b.downlink_mhz, "band {}", b.number);
        }
    }

    #[test]
    fn unknown_band_is_none() {
        assert!(Band::by_number(999).is_none());
    }

    #[test]
    fn licensed_bands_allow_more_bs_power_than_ism() {
        // The regulatory core of the paper's range argument.
        assert!(Band::band5().max_bs_eirp_dbm > Band::ism24().max_bs_eirp_dbm + 10.0);
        assert!(Band::band5().max_ue_power_dbm >= Band::ism24().max_ue_power_dbm);
    }

    #[test]
    fn band_numbers_unique() {
        let mut nums: Vec<u16> = Band::all().iter().map(|b| b.number).collect();
        nums.sort_unstable();
        let before = nums.len();
        nums.dedup();
        assert_eq!(before, nums.len());
    }
}
