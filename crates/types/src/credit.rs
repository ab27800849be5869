//! The shard credit protocol's shared, model-readable surface.
//!
//! `crates/core/src/shard.rs` (the production sharded runtime) and
//! `crates/model` (the bounded schedule explorer) must agree on the
//! credit protocol's constants and parameter space: the runtime runs
//! one concrete configuration, the model checker proves the protocol's
//! safety properties — deadlock-freedom, lost-wakeup-freedom, bounded
//! queue occupancy and merge-order invariance — across *every* thread
//! interleaving of a family of small configurations. Keeping the shared
//! vocabulary here (layer 0, no behaviour) lets both sides depend on it
//! without `model` ever touching the runtime crates.
//!
//! # The protocol, in one paragraph
//!
//! Each shard thread pre-computes captures for its disjoint camera set
//! and sends them coordinator-ward over an MPMC channel; a credit
//! channel flows the other way. A shard takes one credit *before*
//! producing each capture, and the coordinator returns one credit per
//! message it pulls off the channel — even when the message is buffered
//! for a different camera — so a shard runs at most
//! [`CREDIT_WINDOW`] captures ahead and the data queue's occupancy
//! never exceeds the window. Shutdown closes the credit channel first,
//! so a shard blocked on a credit wakes with a disconnect and exits.

/// How many captures a shard may run ahead of the coordinator.
///
/// This is the production window ([`crate::credit`] is the single
/// source of truth; `crates/core/src/shard.rs` imports it). The model
/// checker proves the protocol safe for every window in
/// [`MODEL_WINDOWS`]; the protocol's state machines are
/// window-oblivious — the window only sizes the initial credit grant —
/// so the small-window proofs cover the production value's control
/// structure, and the `CREDIT_WINDOW=1` end-to-end regression pins the
/// tightest configuration byte-identically to the 1-shard oracle.
pub const CREDIT_WINDOW: usize = 1024;

/// The credit windows the model checker sweeps exhaustively.
pub const MODEL_WINDOWS: [usize; 3] = [1, 2, 3];

/// The shard counts the model checker sweeps exhaustively.
pub const MODEL_SHARDS: [usize; 3] = [1, 2, 3];

/// One shard-plane configuration: how many worker threads, and how far
/// each may run ahead of the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditConfig {
    /// Worker-thread count (1 = fully inline, the oracle).
    pub shards: usize,
    /// Per-shard credit window (≥ 1).
    pub window: usize,
}

impl CreditConfig {
    /// The production configuration for `shards` workers.
    #[must_use]
    pub fn production(shards: usize) -> CreditConfig {
        CreditConfig {
            shards: shards.max(1),
            window: CREDIT_WINDOW,
        }
    }
}

impl Default for CreditConfig {
    fn default() -> CreditConfig {
        CreditConfig::production(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_window_is_positive_and_covers_model_windows() {
        assert_ne!(CREDIT_WINDOW, 0);
        for w in MODEL_WINDOWS {
            assert!((1..=CREDIT_WINDOW).contains(&w));
        }
    }
}
