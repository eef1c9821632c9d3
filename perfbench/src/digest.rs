//! The correctness gate: FNV-1a-64 output digests, pinned at the default
//! seed.

use hammervolt_core::exec::{fnv1a64, FNV_OFFSET};

/// The seed used when `--seed` is not given; at this seed every workload's
/// output digest must equal its pinned value.
pub const DEFAULT_SEED: u64 = 0xD5_2022;

/// Output digests at [`DEFAULT_SEED`]: the records JSONL of the study
/// workloads, the Monte-Carlo statistics of `spice_mc`, and the priming
/// responses of `serve_zipf`, in catalog order.
const PINNED: &[(&str, u64)] = &[
    ("hammer_quick", 0xE708_3E88_B4E7_E75C),
    ("latency_retention_quick", 0xA924_FE56_735C_A212),
    ("spice_mc", 0xA2B2_6334_B59A_B0A4),
    ("serve_zipf", 0xE467_FEA3_B3B1_0CFD),
];

/// FNV-1a-64 of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a64(bytes, FNV_OFFSET)
}

/// Checks that `output` hashes to `expected`.
///
/// # Errors
///
/// Names both digests on a mismatch.
pub fn verify(output: &[u8], expected: u64) -> Result<(), String> {
    let got = digest(output);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "output digest {got:016x} does not match the pinned {expected:016x}"
        ))
    }
}

/// Checks a workload's output against its pinned digest when it ran at
/// [`DEFAULT_SEED`]; other seeds have no pinned value and pass.
///
/// # Errors
///
/// On a digest mismatch at the default seed.
pub fn check_pinned(workload: &str, seed: u64, output: &[u8]) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let expected = PINNED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, d)| d)
        .ok_or_else(|| format!("no pinned digest for workload {workload:?}"))?;
    verify(output, expected).map_err(|e| format!("{workload}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_fails_on_a_flipped_byte() {
        let output = b"{\"row\":17,\"ber\":0.0123}\n".to_vec();
        let pinned = digest(&output);
        assert!(verify(&output, pinned).is_ok());
        for i in 0..output.len() {
            let mut flipped = output.clone();
            flipped[i] ^= 0x01;
            assert!(verify(&flipped, pinned).is_err(), "flip at byte {i} passed");
        }
    }

    #[test]
    fn only_the_default_seed_is_pinned() {
        assert!(check_pinned("spice_mc", DEFAULT_SEED + 1, b"anything").is_ok());
        assert!(check_pinned("no_such_workload", DEFAULT_SEED, b"x").is_err());
    }

    #[test]
    fn digest_is_fnv1a64() {
        // Reference values of the 64-bit FNV-1a function.
        assert_eq!(digest(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
