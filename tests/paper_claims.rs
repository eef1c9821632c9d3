//! Cross-crate integration tests asserting the paper's headline claims hold
//! on the simulated devices, end to end through the full methodology stack
//! (device model → SoftMC infrastructure → Algorithms 1–3 → aggregation).
//!
//! These use reduced row counts and iterations, so tolerances are loose; the
//! bench harnesses reproduce the precise figures.

use hammervolt::dram::registry::ModuleId;
use hammervolt::study::exec::{rowhammer_sweeps, trcd_sweeps, ExecConfig};
use hammervolt::study::study::{aggregate_findings, StudyConfig};

fn tiny(modules: &[ModuleId]) -> StudyConfig {
    StudyConfig {
        rows_per_chunk: 4,
        ..StudyConfig::quick_subset(modules)
    }
}

#[test]
fn takeaway1_hc_first_rises_and_ber_falls_on_average() {
    // One representative module per vendor.
    let cfg = tiny(&[ModuleId::A1, ModuleId::B3, ModuleId::C5]);
    let sweeps = rowhammer_sweeps(&cfg, &ExecConfig::serial()).expect("sweep");
    let f = aggregate_findings(&sweeps).expect("aggregate");
    assert!(
        f.mean_hc_change > 0.02,
        "mean HC_first change {:.3} should be clearly positive",
        f.mean_hc_change
    );
    assert!(
        f.mean_ber_change < -0.05,
        "mean BER change {:.3} should be clearly negative",
        f.mean_ber_change
    );
    assert!(f.frac_rows_hc_increased > f.frac_rows_hc_decreased);
    assert!(f.frac_rows_ber_decreased > f.frac_rows_ber_increased);
}

#[test]
fn obsv5_minority_modules_show_opposite_direction() {
    // C8's Table 3 record: HC_first *falls* at V_PPmin (9.5K from 11.4K).
    let cfg = tiny(&[ModuleId::C8]);
    let sweep = rowhammer_sweeps(&cfg, &ExecConfig::serial())
        .expect("sweep")
        .remove(0);
    let hc = sweep.normalized_hc_first();
    let last = hc.last().expect("levels");
    assert!(
        last.mean < 1.0,
        "C8 mean normalized HC_first at V_PPmin = {:.3}, expected < 1",
        last.mean
    );
}

#[test]
fn vppmin_extremes_match_table3_through_the_infrastructure() {
    for (id, expected) in [(ModuleId::A0, 1.4), (ModuleId::A5, 2.4)] {
        let cfg = tiny(&[id]);
        let mut mc = cfg.bring_up(id).expect("bring-up");
        let vppmin = mc.find_vppmin().expect("search");
        assert!(
            (vppmin - expected).abs() < 1e-9,
            "{id:?}: measured V_PPmin {vppmin}, Table 3 says {expected}"
        );
    }
}

#[test]
fn section61_failing_modules_and_their_fixes() {
    // A0 exceeds nominal t_RCD at V_PPmin but works at 24 ns; C0 stays
    // within nominal (two ends of Obsv. 7).
    let cfg = tiny(&[ModuleId::A0, ModuleId::C0]);

    let sweeps = trcd_sweeps(&cfg, 2, &ExecConfig::serial()).expect("sweep");
    let (a0, c0) = (&sweeps[0], &sweeps[1]);
    let worst_a0 = a0
        .worst_per_level()
        .last()
        .and_then(|&(_, w)| w)
        .expect("complete sweep");
    assert!(
        worst_a0 > 13.5,
        "A0 worst t_RCDmin {worst_a0} must exceed nominal"
    );
    assert!(worst_a0 <= 24.0, "…but 24 ns must suffice (got {worst_a0})");

    let worst_c0 = c0
        .worst_per_level()
        .last()
        .and_then(|&(_, w)| w)
        .expect("complete sweep");
    assert!(
        worst_c0 <= 13.5,
        "C0 must stay reliable at nominal t_RCD, worst = {worst_c0}"
    );
}

#[test]
fn guardband_shrinks_but_stays_positive_for_healthy_modules() {
    use hammervolt::study::mitigation::{guardband, guardband_reduction};
    let cfg = tiny(&[ModuleId::C4]);
    let sweep = trcd_sweeps(&cfg, 2, &ExecConfig::serial())
        .expect("sweep")
        .remove(0);
    let at = |vpp: f64| -> Vec<Option<f64>> {
        sweep
            .records
            .iter()
            .filter(|r| hammervolt::study::study::level_matches(r.vpp, vpp))
            .map(|r| r.t_rcd_min_ns)
            .collect()
    };
    let nominal = guardband(&at(2.5)).expect("nominal");
    let reduced = guardband(&at(sweep.vpp_min)).expect("reduced");
    assert!(nominal.reliable_at_nominal && reduced.reliable_at_nominal);
    let loss = guardband_reduction(&nominal, &reduced).expect("reduction");
    assert!(
        (0.0..0.9).contains(&loss),
        "guardband loss {loss:.3} out of plausible range"
    );
}

#[test]
fn b3_reaches_the_strongest_response() {
    // The paper's maximum effects come from B3 at 1.6 V: +85.8 % HC_first
    // for the best rows, −60 % module-level BER. With a tiny sample we check
    // looser bounds.
    let cfg = tiny(&[ModuleId::B3]);
    let sweep = rowhammer_sweeps(&cfg, &ExecConfig::serial())
        .expect("sweep")
        .remove(0);
    let (ber, hc) = sweep.row_ratios_at_vppmin();
    let mean_ber = ber.iter().sum::<f64>() / ber.len() as f64;
    assert!(
        mean_ber < 0.7,
        "B3 mean normalized BER {mean_ber:.3} should show a strong reduction"
    );
    let max_hc = hc.iter().cloned().fold(0.0, f64::max);
    assert!(
        max_hc > 1.25,
        "B3's best row gain {max_hc:.3} should be large"
    );
}
