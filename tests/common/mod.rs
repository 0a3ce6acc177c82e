//! What the output pins share: FNV-1a folding and the list of prompts the
//! paper grid sends, read from the grid's own rows so that a row added to
//! an experiment moves the pins.

use wfspeak::core::experiments::execution_rows;
use wfspeak::core::{ExperimentKind, PromptVariant};
use wfspeak::corpus::fewshot::augment_configuration_prompt;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

pub fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Fold `text` and then its length.
pub fn fold(hash: &mut u64, text: &str) {
    fnv(hash, text.as_bytes());
    fnv(hash, &(text.len() as u64).to_le_bytes());
}

/// Every prompt the grid sends, in grid order: per variant, the rows of the
/// configuration, annotation and translation experiments and of the
/// execution grid, then the few-shot configuration prompts that
/// `run_configuration(_, true)` builds.
#[allow(dead_code)] // `table_grids.rs` folds scores, not prompts.
pub fn grid_prompts() -> Vec<String> {
    let mut prompts = Vec::new();
    for variant in PromptVariant::ALL {
        for kind in ExperimentKind::ALL {
            prompts.extend(kind.rows(variant).into_iter().map(|row| row.prompt));
        }
        prompts.extend(execution_rows(variant).into_iter().map(|row| row.prompt));
    }
    for variant in PromptVariant::ALL {
        for row in ExperimentKind::Configuration.rows(variant) {
            prompts.push(augment_configuration_prompt(&row.prompt, row.system));
        }
    }
    prompts
}
