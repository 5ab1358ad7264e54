//! Deterministic fault injection for robustness testing.
//!
//! The fuzz harness and the robustness suite need to kill one specific unit of
//! work — one pool slot, one candidate validation, one table synthesis — and then
//! assert that the rest of the pipeline degrades *identically* at every thread
//! count.  A wall-clock or arrival-order trigger would fire on a
//! scheduling-dependent victim, so injection here is **index-keyed**: every
//! instrumented site passes the canonical index of its unit of work (slot index,
//! candidate pop index, table task index), and the fault fires iff that index
//! matches the configured one.  Which logical unit dies is therefore a pure
//! function of the fault spec, never of scheduling.
//!
//! The spec comes from the `MITRA_FAULT` environment variable
//! (`panic:<site>:<nth>`, e.g. `panic:synth.validate:3`) resolved on first use,
//! or programmatically via [`set_fault`] (tests).  Instrumented sites:
//!
//! | site             | index                                            |
//! |------------------|--------------------------------------------------|
//! | `pool.slot`      | item index inside one `parallel_map` call        |
//! | `synth.validate` | global candidate pop index of the table search   |
//! | `migrate.table`  | task index inside one `MigrationPlan::run`       |
//! | `corpus.shard`   | shard index of one corpus-service run            |
//! | `corpus.doc`     | document index within the corpus                 |
//!
//! Caught panics: `mitra-pool` counts each one as `pool.panics_caught`, and its
//! message travels as data into the error or record the catching site returns
//! (`MigrationError::Panicked`, a corpus `panic` quarantine).
//!
//! This module is compiled unconditionally (it is behaviour under test, not
//! telemetry), and the unarmed fast path is one relaxed atomic load.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, Once, PoisonError};

/// A parsed `MITRA_FAULT` specification: panic at the `nth` canonical unit of
/// work of `site`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Instrumented site name (e.g. `synth.validate`).
    pub site: String,
    /// Canonical index at which the fault fires.
    pub nth: u64,
}

impl FaultSpec {
    /// Parses `panic:<site>:<nth>`; `None` on anything else.
    pub fn parse(text: &str) -> Option<FaultSpec> {
        let rest = text.trim().strip_prefix("panic:")?;
        let (site, nth) = rest.rsplit_once(':')?;
        if site.is_empty() {
            return None;
        }
        Some(FaultSpec {
            site: site.to_string(),
            nth: nth.trim().parse().ok()?,
        })
    }
}

/// Fast-path arm flag: false ⇒ no fault installed, [`hit`] returns immediately.
static ARMED: AtomicBool = AtomicBool::new(false);
static SPEC: Mutex<Option<FaultSpec>> = Mutex::new(None);
static ENV_INIT: Once = Once::new();

fn install(spec: Option<FaultSpec>) {
    let armed = spec.is_some();
    *SPEC.lock().unwrap_or_else(PoisonError::into_inner) = spec;
    ARMED.store(armed, Relaxed);
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Some(spec) = std::env::var("MITRA_FAULT")
            .ok()
            .and_then(|v| FaultSpec::parse(&v))
        {
            install(Some(spec));
        }
    });
}

/// Installs (or with `None` clears) the process-global fault, overriding any
/// `MITRA_FAULT` environment setting.  Tests that inject faults in-process must
/// serialize on their own lock: the spec is global.
pub fn set_fault(spec: Option<FaultSpec>) {
    // Mark the environment as consumed so a later `hit` cannot re-arm from it.
    ENV_INIT.call_once(|| {});
    install(spec);
}

/// Fault check for one canonical unit of work: panics iff a fault is installed
/// for `site` with `nth == index`.  The panic message is
/// `injected fault: <site>#<index>`.
#[inline]
pub fn hit(site: &str, index: u64) {
    if !ARMED.load(Relaxed) {
        init_from_env();
        if !ARMED.load(Relaxed) {
            return;
        }
    }
    let matched = {
        let guard = SPEC.lock().unwrap_or_else(PoisonError::into_inner);
        matches!(guard.as_ref(), Some(spec) if spec.site == site && spec.nth == index)
    };
    if matched {
        panic!("injected fault: {site}#{index}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(
            FaultSpec::parse("panic:pool.slot:7"),
            Some(FaultSpec {
                site: "pool.slot".into(),
                nth: 7
            })
        );
        assert_eq!(
            FaultSpec::parse(" panic:synth.validate:0 "),
            Some(FaultSpec {
                site: "synth.validate".into(),
                nth: 0
            })
        );
        assert_eq!(FaultSpec::parse("panic::3"), None);
        assert_eq!(FaultSpec::parse("panic:site:"), None);
        assert_eq!(FaultSpec::parse("abort:site:1"), None);
        assert_eq!(FaultSpec::parse(""), None);
    }

    #[test]
    fn hit_fires_only_on_matching_site_and_index() {
        // The spec is process-global; this test owns it for its duration because
        // the trace crate's own tests are the only in-crate users.
        set_fault(Some(FaultSpec {
            site: "test.site".into(),
            nth: 2,
        }));
        hit("test.site", 0);
        hit("test.site", 1);
        hit("other.site", 2);
        let caught = std::panic::catch_unwind(|| hit("test.site", 2));
        set_fault(None);
        let payload = caught.expect_err("index 2 must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "injected fault: test.site#2");
        // Cleared: nothing fires any more.
        hit("test.site", 2);
    }
}
