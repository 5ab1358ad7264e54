//! Deterministic fuel budgets for synthesis and execution.
//!
//! PR 3 removed wall-clock timeouts from the determinism-critical paths because a
//! deadline firing mid-search makes the examined candidate set depend on machine
//! speed and thread count.  A [`Budget`] is the deterministic replacement: pure
//! *work counters* — candidates examined at the best-first frontier, DFA states
//! constructed/intersected, rows materialized by the executor — that are advanced
//! at canonical points of the sequential control flow, so a budget exhausts after
//! exactly the same work at every thread count and on every machine.
//!
//! Checked at three layers:
//!
//! * the best-first frontier ([`crate::synthesize::learn_transformation`]) checks
//!   `candidates` against the total pop count at every batch boundary;
//! * column-automata learning ([`crate::column::learn_column_automata`])
//!   accumulates constructed + intersected state counts in canonical (column,
//!   example) order and stops intersecting once `dfa_states` is spent;
//! * the executor ([`crate::exec::execute_nodes_budgeted`]) counts tuples
//!   materialized by the scan, each join/cross-product step and the residual
//!   check against `rows`.
//!
//! Exhaustion surfaces as a typed [`BudgetExhausted`] carrying the partial
//! [`SynthProfile`] of the work done so far (wrapped as
//! `SynthError::BudgetExhausted` / `MitraError::BudgetExhausted` up the stack),
//! unless the search already holds a valid program — then the incumbent is
//! returned and the breach is reported on
//! [`crate::synthesize::Synthesis::budget_breach`].

use crate::synthesize::SynthProfile;
use std::fmt;

/// A deterministic fuel budget.  `None` fields are unlimited; the default budget
/// is unlimited everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum combos popped off the best-first frontier (examined *or* pruned —
    /// fuel pays for the pop, not for how far evaluation got).
    pub max_candidates: Option<u64>,
    /// Maximum DFA states constructed plus intersected across all columns and
    /// examples of one synthesis call.
    pub max_dfa_states: Option<u64>,
    /// Maximum tuples materialized by the executor across the join and residual
    /// filter steps of one program execution.
    pub max_rows: Option<u64>,
}

impl Budget {
    /// The unlimited budget (every field `None`).
    pub const UNLIMITED: Budget = Budget {
        max_candidates: None,
        max_dfa_states: None,
        max_rows: None,
    };

    /// True when no field imposes a limit.
    pub fn is_unlimited(&self) -> bool {
        self.max_candidates.is_none() && self.max_dfa_states.is_none() && self.max_rows.is_none()
    }

    /// Checks `spent` units of `resource` against this budget: `Err` once the
    /// allowance is used up (`spent >= limit`).
    #[inline]
    pub fn check(&self, resource: BudgetResource, spent: u64) -> Result<(), BudgetBreach> {
        let limit = match resource {
            BudgetResource::Candidates => self.max_candidates,
            BudgetResource::DfaStates => self.max_dfa_states,
            BudgetResource::Rows => self.max_rows,
        };
        match limit {
            Some(limit) if spent >= limit => Err(BudgetBreach {
                resource,
                spent,
                limit,
            }),
            _ => Ok(()),
        }
    }
}

/// The three fuel counters a [`Budget`] can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Combos popped off the best-first frontier.
    Candidates,
    /// DFA states constructed and intersected.
    DfaStates,
    /// Tuples materialized by the executor.
    Rows,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetResource::Candidates => "candidates-examined",
            BudgetResource::DfaStates => "dfa-states",
            BudgetResource::Rows => "rows-materialized",
        })
    }
}

/// One exhausted budget dimension: which resource ran out, and the spent/limit
/// counters at the deterministic check point that tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The exhausted resource.
    pub resource: BudgetResource,
    /// Fuel spent when the check tripped.
    pub spent: u64,
    /// The configured allowance.
    pub limit: u64,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fuel exhausted ({} spent of {} allowed)",
            self.resource, self.spent, self.limit
        )
    }
}

/// The typed payload of a budget-exhaustion failure: the breach plus the partial
/// [`SynthProfile`] of the work completed before fuel ran out (all-zero for
/// breaches raised by the execution phase, which does no synthesis work).
///
/// The profile is boxed so the payload stays small inside the `SynthError` /
/// `MigrationError` / `MitraError` enums that carry it through every
/// `Result` in the stack (clippy's `result_large_err` threshold).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Which counter ran out, and where.
    pub breach: BudgetBreach,
    /// Work done before exhaustion.
    pub profile: Box<SynthProfile>,
}

impl BudgetExhausted {
    /// Builds the payload, boxing the profile.
    pub fn new(breach: BudgetBreach, profile: SynthProfile) -> Self {
        BudgetExhausted {
            breach,
            profile: Box::new(profile),
        }
    }
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after examining {} candidates (pruned {})",
            self.breach, self.profile.candidates_examined, self.profile.candidates_pruned
        )
    }
}

impl std::error::Error for BudgetExhausted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited_and_never_breaches() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert_eq!(b, Budget::UNLIMITED);
        for r in [
            BudgetResource::Candidates,
            BudgetResource::DfaStates,
            BudgetResource::Rows,
        ] {
            assert!(b.check(r, u64::MAX).is_ok());
        }
    }

    #[test]
    fn check_trips_at_the_limit_inclusive() {
        let b = Budget {
            max_candidates: Some(10),
            ..Budget::UNLIMITED
        };
        assert!(!b.is_unlimited());
        assert!(b.check(BudgetResource::Candidates, 9).is_ok());
        let breach = b.check(BudgetResource::Candidates, 10).unwrap_err();
        assert_eq!(breach.spent, 10);
        assert_eq!(breach.limit, 10);
        // Other resources stay unlimited.
        assert!(b.check(BudgetResource::Rows, u64::MAX).is_ok());
    }

    #[test]
    fn displays_name_the_resource() {
        let breach = BudgetBreach {
            resource: BudgetResource::DfaStates,
            spent: 4097,
            limit: 4096,
        };
        let text = breach.to_string();
        assert!(text.contains("dfa-states"), "{text}");
        assert!(text.contains("4097"), "{text}");
        let exhausted = BudgetExhausted::new(breach, SynthProfile::default());
        assert!(exhausted.to_string().contains("dfa-states"));
    }
}
