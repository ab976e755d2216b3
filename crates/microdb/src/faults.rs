//! Deterministic storage fault injection.
//!
//! The persistence stack (WAL appends, checkpoint writes, restore
//! reads) has failure paths that ordinary tests never exercise: disk
//! full, a crash between the tmp write and the rename, a corrupted
//! snapshot. This module gives tests and the chaos harness a seam to
//! trigger those failures deterministically, without a filesystem
//! shim: each I/O site calls [`check`] with its [`FaultPoint`], and an
//! armed plan makes exactly one call fail in a prescribed way.
//!
//! The registry is process-global (WAL appends happen on executor
//! worker threads, so a thread-local seam would miss them) and gated
//! by a single relaxed atomic load: when nothing is armed — always, in
//! production — a fault check is one branch on an already-cached
//! cacheline. Plans are **one-shot**: a plan fires once, records the
//! hit, and never fires again until re-armed, so a recovery path
//! retrying the same operation observes success like a real transient
//! fault.
//!
//! Tests in different processes never interfere; tests in the same
//! process that arm faults must serialize themselves (the chaos
//! harness runs scenarios sequentially for exactly this reason).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A named I/O site that can fail.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A write-log append (see [`crate::wal`]): one committed batch's
    /// record — every table's section, a create's facet rows and
    /// binding row alike, which share the append's fate.
    WalAppend,
    /// The checkpoint writer, *before* the tmp file is renamed into
    /// place: the previous snapshot must survive untouched.
    CheckpointPreRename,
    /// The checkpoint writer, *after* the rename but before the log
    /// compaction: replay idempotence must absorb the overlap.
    CheckpointPostRename,
    /// The restore path's snapshot read. [`FaultKind::Error`] fails
    /// the open outright; [`FaultKind::ShortWrite`] physically
    /// truncates the file before it is opened, so the corruption
    /// flows through the real parse paths.
    RestoreRead,
}

/// How an armed fault manifests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright with an ENOSPC-style error.
    Error,
    /// A prefix of the payload reaches the file (no trailing
    /// newline — a torn tail), then the operation fails.
    ShortWrite,
}

struct Plan {
    point: FaultPoint,
    kind: FaultKind,
    /// Successful passes to allow before firing.
    skip: u64,
    /// Only fire at sites whose path contains this substring — the
    /// isolation handle that lets parallel tests (each on a unique
    /// temp directory) arm faults without tripping each other.
    path_filter: Option<String>,
    fired: bool,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLANS: Mutex<Vec<Plan>> = Mutex::new(Vec::new());

/// Arms `point` to fail with `kind` on its `skip`-th subsequent call
/// (0 = the very next one), at any path. Re-arming a point replaces
/// its plan (per path filter, see [`arm_at`]). One-shot: after firing, the point succeeds again until
/// re-armed.
pub fn arm(point: FaultPoint, skip: u64, kind: FaultKind) {
    arm_plan(point, skip, kind, None);
}

/// Like [`arm`], but the fault only fires at sites whose file path
/// contains `path_substr`. Tests that share a process (the default
/// cargo test runner) MUST use this with a unique temp-dir fragment,
/// or an armed fault can fire inside an unrelated test's I/O. Plans
/// under different fragments coexist; re-arming replaces only the
/// plan with the same point and fragment.
pub fn arm_at(point: FaultPoint, skip: u64, kind: FaultKind, path_substr: &str) {
    arm_plan(point, skip, kind, Some(path_substr.to_owned()));
}

fn arm_plan(point: FaultPoint, skip: u64, kind: FaultKind, path_filter: Option<String>) {
    let mut plans = PLANS.lock().expect("fault registry poisoned");
    // Replace only this filter's plan: a test re-arming its own
    // directory must not disarm another test's.
    plans.retain(|p| p.point != point || p.path_filter != path_filter);
    plans.push(Plan {
        point,
        kind,
        skip,
        path_filter,
        fired: false,
    });
    ARMED.store(true, Ordering::Release);
}

/// Clears every plan (fired or not). Call between scenarios.
pub fn disarm_all() {
    let mut plans = PLANS.lock().expect("fault registry poisoned");
    plans.clear();
    ARMED.store(false, Ordering::Release);
}

/// How many times `point` has fired since it was last armed.
#[must_use]
pub fn hits(point: FaultPoint) -> u64 {
    let plans = PLANS.lock().expect("fault registry poisoned");
    plans.iter().filter(|p| p.point == point && p.fired).count() as u64
}

/// Called at each fault site with the path being operated on:
/// `Some(kind)` exactly when an armed, unfired plan for `point`
/// (whose path filter, if any, matches) has exhausted its skip count.
/// The fast path (nothing armed) is a single atomic load.
#[must_use]
pub fn check(point: FaultPoint, path: &std::path::Path) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut plans = PLANS.lock().expect("fault registry poisoned");
    let plan = plans.iter_mut().find(|p| {
        p.point == point
            && !p.fired
            && p.path_filter
                .as_deref()
                .is_none_or(|frag| path.to_string_lossy().contains(frag))
    })?;
    if plan.skip > 0 {
        plan.skip -= 1;
        return None;
    }
    plan.fired = true;
    Some(plan.kind)
}

/// The error an injected [`FaultKind::Error`] (or the failing half of
/// a [`FaultKind::ShortWrite`]) surfaces as. Tagged `(injected)` so a
/// test failure is never mistaken for a real disk problem.
#[must_use]
pub fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("{what}: no space left on device (injected)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    // These tests mutate the process-global registry, so they use
    // point/path combinations no other test in this binary touches.

    #[test]
    fn plans_skip_then_fire_once() {
        let at = Path::new("/tmp/faults-unit-a/checkpoint.snap");
        arm_at(
            FaultPoint::CheckpointPreRename,
            2,
            FaultKind::Error,
            "faults-unit-a",
        );
        assert_eq!(check(FaultPoint::CheckpointPreRename, at), None);
        assert_eq!(check(FaultPoint::CheckpointPreRename, at), None);
        assert_eq!(
            check(FaultPoint::CheckpointPreRename, at),
            Some(FaultKind::Error)
        );
        // One-shot: the next pass succeeds.
        assert_eq!(check(FaultPoint::CheckpointPreRename, at), None);
        assert_eq!(hits(FaultPoint::CheckpointPreRename), 1);
    }

    #[test]
    fn path_filters_scope_plans() {
        let mine = Path::new("/tmp/faults-unit-b/wal.log");
        let other = Path::new("/tmp/elsewhere/wal.log");
        arm_at(
            FaultPoint::RestoreRead,
            0,
            FaultKind::Error,
            "faults-unit-b",
        );
        assert_eq!(check(FaultPoint::RestoreRead, other), None);
        assert_eq!(check(FaultPoint::RestoreRead, mine), Some(FaultKind::Error));
        assert_eq!(check(FaultPoint::RestoreRead, mine), None);
    }

    #[test]
    fn rearming_replaces_the_plan() {
        let at = Path::new("/tmp/faults-unit-c/wal.log");
        arm_at(
            FaultPoint::CheckpointPostRename,
            5,
            FaultKind::Error,
            "faults-unit-c",
        );
        arm_at(
            FaultPoint::CheckpointPostRename,
            0,
            FaultKind::ShortWrite,
            "faults-unit-c",
        );
        assert_eq!(
            check(FaultPoint::CheckpointPostRename, at),
            Some(FaultKind::ShortWrite)
        );
    }

    #[test]
    fn plans_under_different_fragments_coexist() {
        // Two tests arming the same point under their own directories
        // must not disarm each other.
        let d = Path::new("/tmp/faults-unit-d/checkpoint.snap");
        let e = Path::new("/tmp/faults-unit-e/checkpoint.snap");
        arm_at(
            FaultPoint::RestoreRead,
            0,
            FaultKind::Error,
            "faults-unit-d",
        );
        arm_at(
            FaultPoint::RestoreRead,
            0,
            FaultKind::ShortWrite,
            "faults-unit-e",
        );
        assert_eq!(check(FaultPoint::RestoreRead, d), Some(FaultKind::Error));
        assert_eq!(
            check(FaultPoint::RestoreRead, e),
            Some(FaultKind::ShortWrite)
        );
    }
}
