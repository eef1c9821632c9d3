//! Full `V_PP` ladder sweep of one module: the per-module slice of Figs. 3
//! and 5, printed as a table.
//!
//! Run with `cargo run --release --example vpp_sweep -- [module]`
//! (module defaults to B3; any Table 3 label like `A0` or `C5` works).

use hammervolt::dram::registry::ModuleId;
use hammervolt::stats::table::AsciiTable;
use hammervolt::study::exec::{rowhammer_sweeps, ExecConfig};
use hammervolt::study::study::StudyConfig;

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "B3".to_string());
    let id = ModuleId::ALL
        .iter()
        .copied()
        .find(|m| m.label().eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| panic!("unknown module label {wanted:?}; use A0..C9"));
    let cfg = StudyConfig {
        rows_per_chunk: 6,
        ..StudyConfig::quick_subset(&[id])
    };
    println!("V_PP ladder sweep of module {id} (24 rows, Alg. 1 fast config)\n");
    let sweep = rowhammer_sweeps(&cfg, &ExecConfig::serial())
        .expect("sweep")
        .remove(0);
    let ber = sweep.normalized_ber();
    let hc = sweep.normalized_hc_first();
    let mut t = AsciiTable::new(vec![
        "V_PP (V)".into(),
        "norm. BER".into(),
        "BER 90% band".into(),
        "norm. HC_first".into(),
        "HC 90% band".into(),
    ]);
    for (b, h) in ber.iter().zip(&hc) {
        t.add_row(vec![
            format!("{:.1}", b.vpp),
            format!("{:.3}", b.mean),
            format!("[{:.2}, {:.2}]", b.band.lo, b.band.hi),
            format!("{:.3}", h.mean),
            format!("[{:.2}, {:.2}]", h.band.lo, h.band.hi),
        ]);
    }
    print!("{}", t.render());
    let spec = sweep
        .records
        .first()
        .map(|_| hammervolt::dram::registry::spec(id));
    if let Some(spec) = spec {
        println!(
            "\nTable 3 reference: HC_first ratio at V_PPmin = {:.3}, BER ratio = {:.3}",
            spec.hc_multiplier_target(),
            spec.ber_ratio_at_vppmin(),
        );
    }
}
