//! The pinned chaos seeds CI runs on every push: three deterministic
//! fault/kill/restore interleavings over the three applications (see
//! `jbench::chaos` for the scenario generator and its oracles).
//!
//! The seeds run **sequentially inside one test**. The
//! fault-injection registry is process-global, but every scenario arms
//! its faults under its own directory's path fragment, and re-arming
//! replaces only the plan under the same fragment — so the tests of
//! this file may run in parallel without disarming each other.

/// The counts a scenario knob must leave alone: both arms of a seed
/// replay one interleaving.
fn interleaving(r: &jbench::chaos::ChaosReport) -> (usize, usize, usize, u64) {
    (r.steps, r.kills, r.checkpoints, r.scheduled_checkpoints)
}

#[test]
fn pinned_chaos_seeds_hold_every_invariant() {
    for seed in [1, 7, 0xc4a0] {
        let report = jbench::chaos::run_seed(seed)
            .unwrap_or_else(|violation| panic!("chaos seed {seed}: {violation}"));
        println!("{report}");
        assert!(report.kills >= 3, "every app gets killed at least once");
        assert!(report.degraded_arcs >= 3, "every app degrades + recovers");
        assert_eq!(
            report.sheds, 44,
            "the flood sheds exactly what is past the line"
        );
        assert!(report.writes_ok > 0, "scenarios must land real writes");
        assert!(report.grid_cells_checked > 0);
        assert!(
            report.fragment_repairs > 0,
            "with fragments on, the repair probe must repair entries in place"
        );
    }
}

/// The fragment-repair knob under chaos: the same pinned seed runs
/// once with repair enabled (entries spliced back together from the
/// journal survive kill/restore and degraded-mode arcs byte-identical
/// to uncached renders) and once ablated (bit-identical interleaving,
/// zero repairs, every stale entry paying a full re-render). Runs
/// sequentially after the sweep above for the same global-fault-
/// registry reason.
#[test]
fn pinned_fragment_seed_repairs_and_its_ablation_does_not() {
    let seed = 0xf4a6;
    let on = jbench::chaos::run_seed_with_fragments(seed, true)
        .unwrap_or_else(|violation| panic!("chaos seed {seed} (fragments on): {violation}"));
    println!("{on}");
    assert!(
        on.fragment_repairs > 0,
        "the conference repair probe must repair its warm list page"
    );
    assert!(on.kills >= 3 && on.degraded_arcs >= 3);
    let off = jbench::chaos::run_seed_with_fragments(seed, false)
        .unwrap_or_else(|violation| panic!("chaos seed {seed} (fragments off): {violation}"));
    println!("{off}");
    assert_eq!(
        off.fragment_repairs, 0,
        "the ablated arm never repairs — it discards and re-renders"
    );
    assert_eq!(
        interleaving(&off),
        interleaving(&on),
        "the knob never draws from the RNG: both arms replay one interleaving"
    );
}

/// The incremental-checkpoint knob under chaos: the same pinned seed
/// runs once with dirty-chunk-only checkpoints (the default) and
/// once ablated (`--no-incremental`: every checkpoint re-exports the
/// full snapshot). Both arms run under the executor's record-
/// pressure checkpoint scheduler, so scheduled checkpoints interleave
/// with kills, restores, injected faults, and degraded arcs — and
/// every recovery oracle (grid identity, exactly-once markers,
/// physical rows) must hold in both. Sequential after the tests
/// above for the global-fault-registry reason.
#[test]
fn pinned_incremental_seed_matches_its_full_snapshot_ablation() {
    let seed = 0x1c4e;
    let on = jbench::chaos::run_seed_configured(seed, true, true)
        .unwrap_or_else(|violation| panic!("chaos seed {seed} (incremental on): {violation}"));
    println!("{on}");
    assert!(
        on.scheduled_checkpoints > 0,
        "record pressure must trigger scheduled checkpoints during the run"
    );
    assert!(on.kills >= 3 && on.degraded_arcs >= 3 && on.checkpoints > 0);
    let off = jbench::chaos::run_seed_configured(seed, true, false)
        .unwrap_or_else(|violation| panic!("chaos seed {seed} (incremental off): {violation}"));
    println!("{off}");
    assert!(
        off.scheduled_checkpoints > 0,
        "the full-snapshot arm schedules checkpoints too"
    );
    assert_eq!(
        interleaving(&off),
        interleaving(&on),
        "the knob never draws from the RNG: both arms replay one interleaving"
    );
}

/// Seeds replay exactly: every request, the scheduled checkpoints its
/// post-request hook runs included, executes on the driver's thread,
/// so two runs of one seed print the same report line — scheduled
/// checkpoint and shed counts too.
#[test]
fn pinned_seeds_replay_identical_reports() {
    for seed in [0xc4a0, 0x1c4e] {
        let [first, second] = [0, 1].map(|_| {
            jbench::chaos::run_seed(seed)
                .unwrap_or_else(|violation| panic!("chaos seed {seed}: {violation}"))
                .to_string()
        });
        assert_eq!(first, second, "chaos seed {seed} did not replay");
    }
}
