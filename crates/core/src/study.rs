//! Study orchestration: the study configuration, per-module sweep results
//! and aggregate findings.
//!
//! These are the data behind the paper's figures: each sweep (run by the
//! [`exec`](crate::exec) engine) takes one module through its `V_PP` ladder
//! with one of the algorithms and collects flat records; the aggregation
//! types compute the normalized series, the population ratios, and the
//! headline statistics of §5/§6.

use crate::alg1::Alg1Config;
use crate::alg2::Alg2Config;
use crate::alg3::Alg3Config;
use crate::error::StudyError;
use crate::experiment::RowSample;
use crate::records::{RetentionRecord, RowHammerRecord, TrcdRecord};
use hammervolt_dram::physics::VPP_NOMINAL;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::vendor::Manufacturer;
use hammervolt_dram::{DramModule, Geometry, ModuleBlueprint};
use hammervolt_softmc::SoftMc;
use hammervolt_stats::ci::{population_interval, ConfidenceInterval};
use hammervolt_stats::normalize;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Study-wide configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Modules to test.
    pub modules: Vec<ModuleId>,
    /// Specimen seed base; module `i` uses `seed + i`.
    pub seed: u64,
    /// Bank under test (the paper tests one bank per module).
    pub bank: u32,
    /// Rows per chunk in the four-chunk sample (paper: 1024).
    pub rows_per_chunk: u32,
    /// Use the reduced test geometry instead of the full die (fast runs).
    pub reduced_geometry: bool,
    /// Alg. 1 configuration.
    pub alg1: Alg1Config,
    /// Alg. 2 configuration.
    pub alg2: Alg2Config,
    /// Alg. 3 configuration.
    pub alg3: Alg3Config,
    /// `V_PP` levels for retention sweeps (clamped at each module's
    /// `V_PPmin`); the RowHammer/latency sweeps use the full 0.1 V ladder.
    pub retention_vpp_levels: Vec<f64>,
}

impl StudyConfig {
    /// The paper's full protocol (hours of compute on the simulator).
    pub fn paper() -> Self {
        StudyConfig {
            modules: ModuleId::ALL.to_vec(),
            seed: 0xD5_2022,
            bank: 0,
            rows_per_chunk: 1024,
            reduced_geometry: false,
            alg1: Alg1Config::default(),
            alg2: Alg2Config::default(),
            alg3: Alg3Config::default(),
            retention_vpp_levels: vec![2.5, 2.3, 2.1, 1.9, 1.7, 1.5],
        }
    }

    /// A scaled-down protocol that preserves every experimental step but
    /// samples fewer rows with fewer iterations — minutes instead of hours.
    pub fn quick() -> Self {
        StudyConfig {
            modules: ModuleId::ALL.to_vec(),
            seed: 0xD5_2022,
            bank: 0,
            rows_per_chunk: 8,
            reduced_geometry: true,
            alg1: Alg1Config::fast(),
            alg2: Alg2Config::fast(),
            alg3: Alg3Config::fast(),
            retention_vpp_levels: vec![2.5, 2.1, 1.7, 1.5],
        }
    }

    /// Like [`StudyConfig::quick`] but restricted to a subset of modules.
    pub fn quick_subset(modules: &[ModuleId]) -> Self {
        StudyConfig {
            modules: modules.to_vec(),
            ..StudyConfig::quick()
        }
    }

    /// The smoke protocol: a representative two-modules-per-manufacturer
    /// subset of [`StudyConfig::quick`] with an even smaller row sample —
    /// seconds instead of minutes (`HAMMERVOLT_SCALE=smoke`).
    pub fn smoke() -> Self {
        StudyConfig {
            rows_per_chunk: 4,
            modules: vec![
                ModuleId::A0,
                ModuleId::A5,
                ModuleId::B3,
                ModuleId::B6,
                ModuleId::C5,
                ModuleId::C8,
            ],
            ..StudyConfig::quick()
        }
    }

    /// The specimen seed for a module: module `i` of the fleet uses
    /// `seed + i`, independent of which modules this config selects.
    pub fn module_seed(&self, id: ModuleId) -> u64 {
        let index = ModuleId::ALL.iter().position(|&m| m == id).unwrap_or(0);
        self.seed.wrapping_add(index as u64)
    }

    /// The geometry a module would be instantiated with, without building
    /// the device (the execution engine plans row chunks from this).
    pub fn geometry_for(&self, id: ModuleId) -> Geometry {
        if self.reduced_geometry {
            Geometry::small_test()
        } else {
            registry::spec(id).geometry()
        }
    }

    /// Brings up one module on the infrastructure.
    ///
    /// # Errors
    ///
    /// Propagates device construction errors.
    pub fn bring_up(&self, id: ModuleId) -> Result<SoftMc, StudyError> {
        let spec = registry::spec(id);
        let module = DramModule::with_geometry(spec, self.module_seed(id), self.geometry_for(id))
            .map_err(|e| StudyError::Infrastructure(e.into()))?;
        Ok(SoftMc::new(module))
    }

    /// Calibrates one module's immutable blueprint — the shared stage of
    /// work-unit bring-up. The execution engine builds this once per module
    /// and serves every `(module, chunk)` unit from it (pooled reset or
    /// pristine clone).
    ///
    /// Calibration includes the §4.1 `V_PPmin` search: the search result is
    /// a pure function of the calibrated module, so it is characterized here
    /// once — against a scratch session, counter-free — and memoized on the
    /// blueprint. Units replay the memo (re-emitting the search's
    /// observability footprint) instead of re-running the ladder per chunk,
    /// mirroring how the paper characterizes each module once and reuses the
    /// value across every subsequent experiment.
    ///
    /// # Errors
    ///
    /// Propagates device construction errors.
    pub fn blueprint(&self, id: ModuleId) -> Result<ModuleBlueprint, StudyError> {
        let spec = registry::spec(id);
        let mut bp =
            ModuleBlueprint::with_geometry(spec, self.module_seed(id), self.geometry_for(id))
                .map_err(|e| StudyError::Infrastructure(e.into()))?;
        let mut mc = SoftMc::new(bp.instantiate());
        let (vpp_min, steps) = mc.calibrate_vppmin()?;
        bp.set_vppmin_memo(vpp_min, steps);
        Ok(bp)
    }

    /// The row sample for a geometry.
    pub fn sample(&self, geometry: Geometry) -> RowSample {
        RowSample::chunks(geometry, self.rows_per_chunk)
    }
}

/// One module's RowHammer sweep across its `V_PP` ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleHammerSweep {
    /// The module.
    pub module: ModuleId,
    /// `V_PPmin` found by the §4.1 procedure.
    pub vpp_min: f64,
    /// The levels swept, descending from nominal.
    pub vpp_levels: Vec<f64>,
    /// All per-row records across levels.
    pub records: Vec<RowHammerRecord>,
}

/// A normalized per-level statistic with its 90 % population band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalizedPoint {
    /// `V_PP` level (V).
    pub vpp: f64,
    /// Mean normalized value across rows.
    pub mean: f64,
    /// 90 % population interval across rows.
    pub band: ConfidenceInterval,
}

/// Whether two `V_PP` values denote the same ladder level.
///
/// The supply quantizes to 1 mV and the ladder is generated at that
/// resolution, so levels are compared at half-millivolt tolerance rather
/// than float equality: `2.5 - 9 × 0.1` and `1.6` are the same level even
/// though their bit patterns differ.
pub fn level_matches(a: f64, b: f64) -> bool {
    (a - b).abs() < 5e-4
}

impl ModuleHammerSweep {
    fn records_at(&self, vpp: f64) -> impl Iterator<Item = &RowHammerRecord> {
        self.records
            .iter()
            .filter(move |r| level_matches(r.vpp, vpp))
    }

    fn baseline_by_row<F: Fn(&RowHammerRecord) -> Option<f64>>(
        &self,
        metric: &F,
    ) -> HashMap<u32, f64> {
        self.records_at(VPP_NOMINAL)
            .filter_map(|r| metric(r).map(|v| (r.row, v)))
            .filter(|&(_, v)| v > 0.0 && v.is_finite())
            .collect()
    }

    fn normalized_series<F: Fn(&RowHammerRecord) -> Option<f64>>(
        &self,
        metric: F,
    ) -> Vec<NormalizedPoint> {
        let baseline = self.baseline_by_row(&metric);
        let mut out = Vec::new();
        for &vpp in &self.vpp_levels {
            let ratios: Vec<f64> = self
                .records_at(vpp)
                .filter_map(|r| {
                    let v = metric(r)?;
                    let b = baseline.get(&r.row)?;
                    Some(v / b)
                })
                .collect();
            if ratios.is_empty() {
                continue;
            }
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let band = population_interval(&ratios, 0.9).unwrap_or(ConfidenceInterval {
                lo: mean,
                hi: mean,
                level: 0.9,
            });
            out.push(NormalizedPoint { vpp, mean, band });
        }
        out
    }

    /// Fig. 3 data: normalized BER per level.
    pub fn normalized_ber(&self) -> Vec<NormalizedPoint> {
        self.normalized_series(|r| Some(r.ber))
    }

    /// Fig. 5 data: normalized `HC_first` per level.
    pub fn normalized_hc_first(&self) -> Vec<NormalizedPoint> {
        self.normalized_series(|r| r.hc_first.map(|h| h as f64))
    }

    /// Figs. 4/6 data: per-row normalized values at `V_PPmin`.
    ///
    /// Rows with a zero (or non-finite) baseline — rows that never flip at
    /// nominal `V_PP` — have no meaningful ratio and are excluded rather than
    /// contributing `NaN`/`inf` to the population.
    pub fn row_ratios_at_vppmin(&self) -> (Vec<f64>, Vec<f64>) {
        let ber_base = self.baseline_by_row(&|r: &RowHammerRecord| Some(r.ber));
        let hc_base = self.baseline_by_row(&|r: &RowHammerRecord| r.hc_first.map(|h| h as f64));
        let mut ber = Vec::new();
        let mut hc = Vec::new();
        for r in self.records_at(self.vpp_min) {
            if let Some(&b) = ber_base.get(&r.row) {
                if b > 0.0 {
                    let ratio = r.ber / b;
                    if ratio.is_finite() {
                        ber.push(ratio);
                    }
                }
            }
            if let (Some(h), Some(&b)) = (r.hc_first, hc_base.get(&r.row)) {
                if b > 0.0 {
                    let ratio = h as f64 / b;
                    if ratio.is_finite() {
                        hc.push(ratio);
                    }
                }
            }
        }
        (ber, hc)
    }
}

/// One module's `t_RCD` sweep across its ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleTrcdSweep {
    /// The module.
    pub module: ModuleId,
    /// `V_PPmin`.
    pub vpp_min: f64,
    /// Levels swept.
    pub vpp_levels: Vec<f64>,
    /// Per-row records across levels.
    pub records: Vec<TrcdRecord>,
}

impl ModuleTrcdSweep {
    /// Worst (largest) `t_RCDmin` at each level — the Fig. 7 curve.
    ///
    /// Single pass over the records: each record is bucketed by its ladder
    /// level index (via [`level_matches`]) instead of rescanning the record
    /// list once per level.
    pub fn worst_per_level(&self) -> Vec<(f64, Option<f64>)> {
        let mut worst: Vec<Option<f64>> = vec![None; self.vpp_levels.len()];
        let mut incomplete = vec![false; self.vpp_levels.len()];
        for r in &self.records {
            let Some(li) = self
                .vpp_levels
                .iter()
                .position(|&v| level_matches(v, r.vpp))
            else {
                continue;
            };
            match r.t_rcd_min_ns {
                Some(t) => worst[li] = Some(worst[li].map_or(t, |w: f64| w.max(t))),
                None => incomplete[li] = true,
            }
        }
        self.vpp_levels
            .iter()
            .zip(worst)
            .zip(incomplete)
            .map(|((&vpp, w), inc)| (vpp, if inc { None } else { w }))
            .collect()
    }
}

/// One module's retention sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleRetentionSweep {
    /// The module.
    pub module: ModuleId,
    /// `V_PPmin`.
    pub vpp_min: f64,
    /// Levels swept (clamped at `V_PPmin`).
    pub vpp_levels: Vec<f64>,
    /// Per-row, per-window records across levels.
    pub records: Vec<RetentionRecord>,
}

impl ModuleRetentionSweep {
    /// Mean retention BER per window at one level — a Fig. 10a curve.
    pub fn mean_ber_curve(&self, vpp: f64) -> Vec<(f64, f64)> {
        let mut by_window: HashMap<u64, (f64, usize)> = HashMap::new();
        for r in self.records.iter().filter(|r| level_matches(r.vpp, vpp)) {
            let key = (r.window_s * 1e6) as u64;
            let e = by_window.entry(key).or_insert((0.0, 0));
            e.0 += r.ber;
            e.1 += 1;
        }
        let mut curve: Vec<(f64, f64)> = by_window
            .into_iter()
            .map(|(k, (sum, n))| (k as f64 / 1e6, sum / n as f64))
            .collect();
        curve.sort_by(hammervolt_stats::order::by_f64_key(|p: &(f64, f64)| p.0));
        curve
    }

    /// Per-row BER at a given window and level — Fig. 10b's population.
    pub fn row_bers_at(&self, vpp: f64, window_s: f64) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| level_matches(r.vpp, vpp) && (r.window_s - window_s).abs() < 1e-9)
            .map(|r| r.ber)
            .collect()
    }
}

/// Headline statistics across modules (Takeaway 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HammerFindings {
    /// Mean BER change at `V_PPmin` across all rows (paper: −15.2 %).
    pub mean_ber_change: f64,
    /// Most negative module-mean BER change (paper: −66.9 %, B3).
    pub max_ber_reduction: f64,
    /// Mean `HC_first` change at `V_PPmin` (paper: +7.4 %).
    pub mean_hc_change: f64,
    /// Largest per-row `HC_first` increase (paper: +85.8 %).
    pub max_hc_increase: f64,
    /// Fraction of rows whose BER decreased (paper: 81.2 %).
    pub frac_rows_ber_decreased: f64,
    /// Fraction of rows whose BER increased (paper: 15.4 %).
    pub frac_rows_ber_increased: f64,
    /// Fraction of rows whose `HC_first` increased (paper: 69.3 %).
    pub frac_rows_hc_increased: f64,
    /// Fraction of rows whose `HC_first` decreased (paper: 14.2 %).
    pub frac_rows_hc_decreased: f64,
}

/// Aggregates sweep results into the paper's headline statistics.
///
/// # Errors
///
/// Fails if the sweeps carry no usable normalized rows.
pub fn aggregate_findings(sweeps: &[ModuleHammerSweep]) -> Result<HammerFindings, StudyError> {
    let mut all_ber = Vec::new();
    let mut all_hc = Vec::new();
    let mut module_mean_ber = Vec::new();
    for sweep in sweeps {
        let (ber, hc) = sweep.row_ratios_at_vppmin();
        if !ber.is_empty() {
            module_mean_ber.push(ber.iter().sum::<f64>() / ber.len() as f64);
        }
        all_ber.extend(ber);
        all_hc.extend(hc);
    }
    if all_ber.is_empty() || all_hc.is_empty() {
        return Err(StudyError::InvalidConfig {
            reason: "no normalized rows; sweeps empty?".to_string(),
        });
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // "Changed" means beyond a 1 % band, mirroring the paper's treatment of
    // rows with negligible variation.
    let frac = |v: &[f64], pred: &dyn Fn(f64) -> bool| {
        v.iter().filter(|&&x| pred(x)).count() as f64 / v.len() as f64
    };
    Ok(HammerFindings {
        mean_ber_change: mean(&all_ber) - 1.0,
        max_ber_reduction: module_mean_ber
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            - 1.0,
        mean_hc_change: mean(&all_hc) - 1.0,
        max_hc_increase: all_hc.iter().cloned().fold(0.0, f64::max) - 1.0,
        frac_rows_ber_decreased: frac(&all_ber, &|x| x < 0.99),
        frac_rows_ber_increased: frac(&all_ber, &|x| x > 1.01),
        frac_rows_hc_increased: frac(&all_hc, &|x| x > 1.01),
        frac_rows_hc_decreased: frac(&all_hc, &|x| x < 0.99),
    })
}

/// Groups per-row ratios by manufacturer — the Figs. 4/6 populations.
pub fn ratios_by_manufacturer(
    sweeps: &[ModuleHammerSweep],
) -> HashMap<Manufacturer, (Vec<f64>, Vec<f64>)> {
    let mut out: HashMap<Manufacturer, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for sweep in sweeps {
        let (ber, hc) = sweep.row_ratios_at_vppmin();
        let entry = out.entry(sweep.module.manufacturer()).or_default();
        entry.0.extend(ber);
        entry.1.extend(hc);
    }
    out
}

/// Thins a ladder to at most `cap` levels, always keeping both endpoints.
pub(crate) fn thin_levels(ladder: &[f64], cap: usize) -> Vec<f64> {
    if ladder.len() <= cap {
        return ladder.to_vec();
    }
    let mut out = Vec::with_capacity(cap);
    for i in 0..cap {
        let idx = i * (ladder.len() - 1) / (cap - 1);
        out.push(ladder[idx]);
    }
    out.dedup();
    out
}

/// Normalizes a series of raw values to the first (nominal) value; exposed
/// for harnesses that work on raw curves.
///
/// # Errors
///
/// Propagates normalization failures (zero baseline).
pub fn normalize_curve(values: &[f64]) -> Result<Vec<f64>, StudyError> {
    normalize::normalize_to_first(values).map_err(|e| StudyError::InvalidConfig {
        reason: format!("cannot normalize: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{retention_sweeps, rowhammer_sweeps, trcd_sweeps, ExecConfig};

    fn tiny_config(modules: &[ModuleId]) -> StudyConfig {
        StudyConfig {
            rows_per_chunk: 3,
            ..StudyConfig::quick_subset(modules)
        }
    }

    #[test]
    fn rowhammer_sweep_produces_ladder_records() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let sweep = rowhammer_sweeps(&cfg, &ExecConfig::serial())
            .unwrap()
            .remove(0);
        assert!((sweep.vpp_min - 1.6).abs() < 1e-9);
        assert_eq!(sweep.vpp_levels.len(), 10); // 2.5 → 1.6
        assert!(!sweep.records.is_empty());
        // normalized series exist and start at 1.0
        let ber = sweep.normalized_ber();
        assert!((ber[0].mean - 1.0).abs() < 1e-9);
        let hc = sweep.normalized_hc_first();
        assert!((hc[0].mean - 1.0).abs() < 1e-9);
        // B3's HC_first grows toward V_PPmin
        let last = hc.last().unwrap();
        assert!(
            last.mean > 1.05,
            "B3 normalized HC_first at V_PPmin = {}",
            last.mean
        );
        // and BER falls
        let last_ber = ber.last().unwrap();
        assert!(
            last_ber.mean < 0.95,
            "B3 normalized BER at V_PPmin = {}",
            last_ber.mean
        );
    }

    #[test]
    fn aggregate_findings_have_paper_signs() {
        let cfg = tiny_config(&[ModuleId::B3, ModuleId::C0]);
        let sweeps = rowhammer_sweeps(&cfg, &ExecConfig::serial()).unwrap();
        let f = aggregate_findings(&sweeps).unwrap();
        assert!(f.mean_hc_change > 0.0, "HC_first must rise on average");
        assert!(f.mean_ber_change < 0.0, "BER must fall on average");
        assert!(f.frac_rows_hc_increased > f.frac_rows_hc_decreased);
        assert!(f.frac_rows_ber_decreased > f.frac_rows_ber_increased);
        assert!(f.max_hc_increase > f.mean_hc_change);
    }

    #[test]
    fn trcd_sweep_worst_grows_toward_vppmin() {
        let cfg = tiny_config(&[ModuleId::A0]);
        let sweep = trcd_sweeps(&cfg, 3, &ExecConfig::serial())
            .unwrap()
            .remove(0);
        let worst = sweep.worst_per_level();
        let first = worst.first().unwrap().1.unwrap();
        let last = worst.last().unwrap().1.unwrap();
        assert!(last > first, "t_RCDmin must grow: {first} → {last}");
        assert!(last > 13.5, "A0 exceeds nominal at V_PPmin");
    }

    #[test]
    fn retention_sweep_records_windows() {
        let cfg = tiny_config(&[ModuleId::C2]);
        let sweep = retention_sweeps(&cfg, &ExecConfig::serial())
            .unwrap()
            .remove(0);
        assert!(!sweep.records.is_empty());
        let nominal_curve = sweep.mean_ber_curve(2.5);
        assert_eq!(nominal_curve.len(), cfg.alg3.windows_s.len());
        // BER grows with the window at nominal V_PP
        assert!(nominal_curve.last().unwrap().1 >= nominal_curve.first().unwrap().1);
        // reduced V_PP curve sits above nominal at the 4 s window
        let reduced_curve = sweep.mean_ber_curve(1.5);
        let at = |curve: &[(f64, f64)], w: f64| {
            curve
                .iter()
                .find(|(x, _)| (x - w).abs() < 1e-9)
                .map(|&(_, y)| y)
                .unwrap()
        };
        assert!(at(&reduced_curve, 4.0) > at(&nominal_curve, 4.0));
    }

    #[test]
    fn thin_levels_keeps_endpoints() {
        let ladder: Vec<f64> = (0..12).map(|i| 2.5 - 0.1 * i as f64).collect();
        let t = thin_levels(&ladder, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], ladder[0]);
        assert_eq!(*t.last().unwrap(), *ladder.last().unwrap());
        // short ladders pass through
        assert_eq!(thin_levels(&ladder[..2], 5), ladder[..2].to_vec());
    }

    #[test]
    fn ratios_group_by_manufacturer() {
        let cfg = tiny_config(&[ModuleId::A4, ModuleId::B3]);
        let sweeps = rowhammer_sweeps(&cfg, &ExecConfig::serial()).unwrap();
        let grouped = ratios_by_manufacturer(&sweeps);
        assert!(grouped.contains_key(&Manufacturer::A));
        assert!(grouped.contains_key(&Manufacturer::B));
        assert!(!grouped[&Manufacturer::B].1.is_empty());
    }

    #[test]
    fn normalize_curve_helper() {
        let n = normalize_curve(&[2.0, 1.0]).unwrap();
        assert_eq!(n, vec![1.0, 0.5]);
        assert!(normalize_curve(&[0.0, 1.0]).is_err());
    }

    fn hammer_record(vpp: f64, row: u32, ber: f64, hc_first: Option<u64>) -> RowHammerRecord {
        RowHammerRecord {
            module: ModuleId::B3,
            vpp,
            bank: 0,
            row,
            wcdp: crate::patterns::DataPattern::CheckerboardAa,
            hc_first,
            ber,
        }
    }

    #[test]
    fn level_matching_tolerates_ladder_arithmetic() {
        // Repeated 0.1 V decrements drift off 1.6 bit-for-bit; they are
        // still the same ladder level.
        let mut computed: f64 = 2.5;
        for _ in 0..9 {
            computed -= 0.1;
        }
        assert_ne!(computed.to_bits(), 1.6f64.to_bits());
        assert!(level_matches(computed, 1.6));
        // Adjacent 0.1 V levels never match.
        assert!(!level_matches(1.6, 1.7));
        assert!(!level_matches(2.5, 2.4));

        // A sweep whose records carry the accumulated-arithmetic value is
        // still found when querying the rounded level.
        let sweep = ModuleHammerSweep {
            module: ModuleId::B3,
            vpp_min: 1.6,
            vpp_levels: vec![2.5, computed],
            records: vec![
                hammer_record(2.5, 10, 1e-6, Some(100_000)),
                hammer_record(computed, 10, 5e-7, Some(120_000)),
            ],
        };
        assert_eq!(sweep.records_at(1.6).count(), 1);
        let (ber, hc) = sweep.row_ratios_at_vppmin();
        assert_eq!(ber.len(), 1);
        assert_eq!(hc.len(), 1);
    }

    #[test]
    fn row_ratios_exclude_zero_baseline_rows() {
        // Row 10 never flips at nominal V_PP (BER 0, no HC_first): it must be
        // excluded from the ratio populations instead of yielding NaN/inf.
        let sweep = ModuleHammerSweep {
            module: ModuleId::B3,
            vpp_min: 1.6,
            vpp_levels: vec![2.5, 1.6],
            records: vec![
                hammer_record(2.5, 10, 0.0, None),
                hammer_record(2.5, 11, 1e-6, Some(100_000)),
                hammer_record(1.6, 10, 2e-7, Some(250_000)),
                hammer_record(1.6, 11, 5e-7, Some(130_000)),
            ],
        };
        let (ber, hc) = sweep.row_ratios_at_vppmin();
        assert_eq!(ber, vec![0.5]);
        assert_eq!(hc, vec![1.3]);
        assert!(ber.iter().chain(&hc).all(|v| v.is_finite()));
        // Normalized series are likewise finite.
        for p in sweep
            .normalized_ber()
            .iter()
            .chain(&sweep.normalized_hc_first())
        {
            assert!(p.mean.is_finite());
        }
    }

    #[test]
    fn worst_per_level_single_pass_matches_per_level_scan() {
        let rec = |vpp: f64, row: u32, t: Option<f64>| TrcdRecord {
            module: ModuleId::A0,
            vpp,
            bank: 0,
            row,
            t_rcd_min_ns: t,
        };
        // Same ladder level as 1.6 with accumulated-arithmetic drift.
        let mut computed: f64 = 2.5;
        for _ in 0..9 {
            computed -= 0.1;
        }
        let sweep = ModuleTrcdSweep {
            module: ModuleId::A0,
            vpp_min: 1.6,
            vpp_levels: vec![2.5, 2.0, 1.6],
            records: vec![
                rec(2.5, 1, Some(12.0)),
                rec(2.5, 2, Some(13.0)),
                rec(2.0, 1, Some(14.0)),
                rec(2.0, 2, None), // incomplete level
                rec(computed, 1, Some(20.0)),
                rec(computed, 2, Some(24.0)),
            ],
        };
        assert_eq!(
            sweep.worst_per_level(),
            vec![(2.5, Some(13.0)), (2.0, None), (1.6, Some(24.0))]
        );
    }
}
