//! Differential testing: the Jacqueline (policy-agnostic) and the
//! hand-coded baseline implementations must render *identical* pages
//! for every viewer — the strongest end-to-end policy-compliance
//! check in the repository.

use apps::workload;
use jacqueline::Viewer;

#[test]
fn conference_all_pages_agree_for_every_viewer() {
    let w = workload::conference(12, 10);
    let app = w.app;
    let mut vanilla = w.vanilla;
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=12).map(Viewer::User))
        .collect();
    for viewer in &viewers {
        assert_eq!(
            apps::conf::all_papers(&app, viewer),
            vanilla.all_papers(viewer),
            "all_papers for {viewer}"
        );
        assert_eq!(
            apps::conf::all_users(&app, viewer),
            vanilla.all_users(viewer),
            "all_users for {viewer}"
        );
        for paper in 1..=10 {
            assert_eq!(
                apps::conf::single_paper(&app, viewer, paper),
                vanilla.single_paper(viewer, paper),
                "single_paper {paper} for {viewer}"
            );
        }
        for user in 1..=12 {
            assert_eq!(
                apps::conf::single_user(&app, viewer, user),
                vanilla.single_user(viewer, user),
                "single_user {user} for {viewer}"
            );
        }
    }
}

#[test]
fn conference_final_phase_agrees() {
    let w = workload::conference(6, 5);
    let app = w.app;
    let mut vanilla = w.vanilla;
    apps::conf::set_phase(&app, apps::conf::PHASE_FINAL).unwrap();
    vanilla.set_phase(apps::conf::PHASE_FINAL);
    for viewer in [Viewer::Anonymous, Viewer::User(2), Viewer::User(6)] {
        assert_eq!(
            apps::conf::all_papers(&app, &viewer),
            vanilla.all_papers(&viewer),
            "final-phase all_papers for {viewer}"
        );
    }
}

#[test]
fn health_pages_agree_for_every_viewer() {
    let w = workload::health(15);
    let app = w.app;
    let mut vanilla = w.vanilla;
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=15).map(Viewer::User))
        .collect();
    for viewer in &viewers {
        assert_eq!(
            apps::health::all_records_summary(&app, viewer),
            vanilla.all_records_summary(viewer),
            "all_records for {viewer}"
        );
    }
    let n_records = vanilla.db.all("health_record").unwrap().len() as i64;
    for viewer in &viewers {
        for rec in 1..=n_records {
            assert_eq!(
                apps::health::single_record(&app, viewer, rec),
                vanilla.single_record(viewer, rec),
                "record {rec} for {viewer}"
            );
        }
    }
}

#[test]
fn courses_pages_agree_for_every_viewer() {
    let w = workload::courses(8);
    let app = w.app;
    let mut vanilla = w.vanilla;
    let n_users = vanilla.db.all("cuser").unwrap().len() as i64;
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();
    for viewer in &viewers {
        assert_eq!(
            apps::courses::all_courses(&app, viewer),
            vanilla.all_courses(viewer),
            "all_courses for {viewer}"
        );
    }
}

#[test]
fn courses_pruned_and_unpruned_agree_with_baseline() {
    let w = workload::courses(6);
    let app = w.app;
    let mut vanilla = w.vanilla;
    for viewer in [
        Viewer::Anonymous,
        Viewer::User(w.student),
        Viewer::User(w.instructor),
    ] {
        let baseline = vanilla.all_courses(&viewer);
        assert_eq!(apps::courses::all_courses(&app, &viewer), baseline);
        assert_eq!(
            apps::courses::all_courses_no_pruning(&app, &viewer),
            baseline,
            "no-pruning page must agree for {viewer}"
        );
    }
}

/// Courses: *every* page (course list with and without pruning, every
/// submission view) for *every* viewer, with both graded and ungraded
/// submissions on the page — the same exhaustive coverage the
/// conference app gets in `conference_all_pages_agree_for_every_viewer`.
#[test]
fn courses_all_pages_agree_for_every_viewer() {
    use microdb::Value;
    let w = workload::courses(5);
    let app = w.app;
    let mut vanilla = w.vanilla;
    // One submission per assignment from the enrolled student; every
    // other submission is graded, so both states of the stateful
    // grade policy appear.
    let n_assignments = vanilla.db.all("assignment").unwrap().len() as i64;
    let mut submissions = Vec::new();
    for a in 1..=n_assignments {
        let row = vec![
            Value::Int(a),
            Value::Int(w.student),
            Value::from(format!("answer-{a}")),
            Value::Int(-1),
            Value::Bool(false),
        ];
        let sj = app.create("submission", row.clone()).unwrap();
        let sv = vanilla.db.insert("submission", row).unwrap();
        assert_eq!(sj, sv, "submission ids must line up");
        submissions.push(sj);
        if a % 2 == 0 {
            apps::courses::grade_submission(&app, sj, 80 + a).unwrap();
            vanilla
                .db
                .update(
                    "submission",
                    sv,
                    &[
                        ("grade".to_owned(), Value::Int(80 + a)),
                        ("graded".to_owned(), Value::Bool(true)),
                    ],
                )
                .unwrap();
        }
    }
    let n_users = vanilla.db.all("cuser").unwrap().len() as i64;
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();
    for viewer in &viewers {
        let baseline = vanilla.all_courses(viewer);
        assert_eq!(
            apps::courses::all_courses(&app, viewer),
            baseline,
            "all_courses for {viewer}"
        );
        assert_eq!(
            apps::courses::all_courses_no_pruning(&app, viewer),
            baseline,
            "all_courses_no_pruning for {viewer}"
        );
        for &s in &submissions {
            assert_eq!(
                apps::courses::view_submission(&app, viewer, s),
                vanilla.view_submission(viewer, s),
                "view_submission {s} for {viewer}"
            );
        }
    }
}

/// Health: every page for every viewer across a full waiver
/// lifecycle — grant to the insurer, grant to a stranger, add an
/// inactive waiver — exercising the output-time stateful policy.
#[test]
fn health_waiver_lifecycle_agrees_for_every_viewer() {
    use microdb::Value;
    let w = workload::health(12);
    let mut app = w.app;
    let mut vanilla = w.vanilla;
    let n_users = vanilla.db.all("individual").unwrap().len() as i64;
    let n_records = vanilla.db.all("health_record").unwrap().len() as i64;
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();

    let check_all_pages = |app: &mut jacqueline::App,
                           vanilla: &mut apps::health_vanilla::HealthVanilla,
                           stage: &str| {
        for viewer in &viewers {
            assert_eq!(
                apps::health::all_records_summary(app, viewer),
                vanilla.all_records_summary(viewer),
                "[{stage}] all_records for {viewer}"
            );
            for rec in 1..=n_records {
                assert_eq!(
                    apps::health::single_record(app, viewer, rec),
                    vanilla.single_record(viewer, rec),
                    "[{stage}] record {rec} for {viewer}"
                );
            }
        }
    };
    check_all_pages(&mut app, &mut vanilla, "initial");

    // Grant a genuine stranger to record 1 (neither its patient,
    // doctor, nor insurer) an active waiver — their view of the
    // record must flip from protected to visible in *both* worlds —
    // then add an *inactive* waiver for record 2, which must grant
    // nothing.
    let mirror_waiver = |app: &mut jacqueline::App,
                         vanilla: &mut apps::health_vanilla::HealthVanilla,
                         record: i64,
                         grantee: i64,
                         active: bool| {
        apps::health::set_waiver(app, record, grantee, active).unwrap();
        vanilla
            .db
            .insert(
                "waiver",
                vec![Value::Int(record), Value::Int(grantee), Value::Bool(active)],
            )
            .unwrap();
    };
    let record1 = vanilla.db.get("health_record", 1).unwrap().unwrap();
    let involved: Vec<i64> = record1[1..=3].iter().filter_map(|v| v.as_int()).collect();
    let stranger = (1..=n_users)
        .find(|u| !involved.contains(u))
        .expect("a stranger to record 1 exists");
    assert!(
        apps::health::single_record(&app, &Viewer::User(stranger), 1).contains("[protected]"),
        "the chosen stranger must start out locked out"
    );
    mirror_waiver(&mut app, &mut vanilla, 1, stranger, true);
    assert!(
        !apps::health::single_record(&app, &Viewer::User(stranger), 1).contains("[protected]"),
        "the active waiver must unlock record 1 for the stranger"
    );
    check_all_pages(&mut app, &mut vanilla, "after grant");
    if n_records >= 2 {
        mirror_waiver(&mut app, &mut vanilla, 2, w.patient, false);
        check_all_pages(&mut app, &mut vanilla, "after inactive waiver");
    }
}

#[test]
fn submissions_agree_after_grading() {
    let w = workload::courses(4);
    let app = w.app;
    let mut vanilla = w.vanilla;
    use microdb::Value;
    // Create the same submission in both worlds, grade only later.
    let subm_row = vec![
        Value::Int(1),
        Value::Int(w.student),
        Value::from("answer"),
        Value::Int(-1),
        Value::Bool(false),
    ];
    let sj = app.create("submission", subm_row.clone()).unwrap();
    let sv = vanilla.db.insert("submission", subm_row).unwrap();
    assert_eq!(sj, sv);
    for viewer in [
        Viewer::User(w.student),
        Viewer::User(w.instructor),
        Viewer::Anonymous,
    ] {
        assert_eq!(
            apps::courses::view_submission(&app, &viewer, sj),
            vanilla.view_submission(&viewer, sv),
            "pre-grading view for {viewer}"
        );
    }
    apps::courses::grade_submission(&app, sj, 88).unwrap();
    vanilla
        .db
        .update(
            "submission",
            sv,
            &[
                ("grade".to_owned(), Value::Int(88)),
                ("graded".to_owned(), Value::Bool(true)),
            ],
        )
        .unwrap();
    for viewer in [
        Viewer::User(w.student),
        Viewer::User(w.instructor),
        Viewer::Anonymous,
    ] {
        assert_eq!(
            apps::courses::view_submission(&app, &viewer, sj),
            vanilla.view_submission(&viewer, sv),
            "post-grading view for {viewer}"
        );
    }
}

/// Decode-cache differential: with the cache disabled, every page of
/// every app must render byte-identically for every viewer — pinning
/// that the generation-stamped decode cache is a pure optimization.
/// Pages are rendered twice per configuration so the second cached
/// pass is guaranteed to serve from a warm snapshot.
#[test]
fn decode_cache_differential_all_pages_all_viewers() {
    // Conference: all four pages.
    let w = workload::conference(10, 8);
    let mut app = w.app;
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=10).map(Viewer::User))
        .collect();
    let render_conf = |app: &jacqueline::App| {
        let mut pages = Vec::new();
        for viewer in &viewers {
            pages.push(apps::conf::all_papers(app, viewer));
            pages.push(apps::conf::all_users(app, viewer));
            for paper in 1..=8 {
                pages.push(apps::conf::single_paper(app, viewer, paper));
            }
            for user in 1..=10 {
                pages.push(apps::conf::single_user(app, viewer, user));
            }
        }
        pages
    };
    let _warm = render_conf(&app);
    let cached = render_conf(&app);
    assert!(
        app.db.decode_cache_stats().hits > 0,
        "the warm pass must actually exercise the cache"
    );
    app.db.set_decode_cache(false);
    let uncached = render_conf(&app);
    assert_eq!(
        cached, uncached,
        "conference pages must not depend on the cache"
    );
    app.db.set_decode_cache(true);
    let hits_before = app.db.decode_cache_stats().hits;
    let again = render_conf(&app);
    assert_eq!(again, cached, "re-enabling the cache changes nothing");
    assert!(
        app.db.decode_cache_stats().hits > hits_before,
        "the re-enabled pass must serve from the cache again"
    );

    // Courses: both course pages and every submission view.
    let w = workload::courses(6);
    let mut app = w.app;
    let n_users = 1 + 6;
    let course_viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();
    let render_courses = |app: &jacqueline::App| {
        let mut pages = Vec::new();
        for viewer in &course_viewers {
            pages.push(apps::courses::all_courses(app, viewer));
            pages.push(apps::courses::all_courses_no_pruning(app, viewer));
        }
        pages
    };
    let _warm = render_courses(&app);
    let cached = render_courses(&app);
    app.db.set_decode_cache(false);
    assert_eq!(render_courses(&app), cached, "courses pages differ");

    // Health: summary plus every record page.
    let w = workload::health(12);
    let mut app = w.app;
    let mut vanilla = w.vanilla;
    let n_records = vanilla.db.all("health_record").unwrap().len() as i64;
    let health_viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=12).map(Viewer::User))
        .collect();
    let render_health = |app: &jacqueline::App| {
        let mut pages = Vec::new();
        for viewer in &health_viewers {
            pages.push(apps::health::all_records_summary(app, viewer));
            for rec in 1..=n_records {
                pages.push(apps::health::single_record(app, viewer, rec));
            }
        }
        pages
    };
    let _warm = render_health(&app);
    let cached = render_health(&app);
    app.db.set_decode_cache(false);
    assert_eq!(render_health(&app), cached, "health pages differ");
}

/// Delta-maintenance differential: a deltas-on app and a deltas-off
/// twin (every stale slot pays a full re-decode) must render the full
/// all-pages × all-viewers conference grid byte-identically across an
/// interleaved write mix — inserts (papers, reviews), updates (phase,
/// review score), and a delete. Pins WAL-fed delta repair as a pure
/// optimization: same bytes, fewer decodes.
#[test]
fn delta_maintenance_differential_all_pages_under_writes() {
    use microdb::Value;
    let on = workload::conference(8, 6).app;
    let mut off = workload::conference(8, 6).app;
    assert!(
        off.db.set_delta_maintenance(false),
        "the ablation flag reports the previous (enabled) state"
    );
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=8).map(Viewer::User))
        .collect();
    let render = |app: &jacqueline::App, papers: &[i64]| {
        let mut pages = Vec::new();
        for viewer in &viewers {
            pages.push(apps::conf::all_papers(app, viewer));
            pages.push(apps::conf::all_users(app, viewer));
            for paper in papers {
                pages.push(apps::conf::single_paper(app, viewer, *paper));
            }
            for user in 1..=8 {
                pages.push(apps::conf::single_user(app, viewer, user));
            }
        }
        pages
    };
    let mut papers: Vec<i64> = (1..=6).collect();
    let check = |on: &jacqueline::App, off: &jacqueline::App, papers: &[i64], when: &str| {
        assert_eq!(render(on, papers), render(off, papers), "grid {when}");
    };
    check(&on, &off, &papers, "before any write");

    // Insert: a new paper lands in both twins.
    let pa = apps::conf::submit_paper(&on, &Viewer::User(3), "Delta paper").unwrap();
    let pb = apps::conf::submit_paper(&off, &Viewer::User(3), "Delta paper").unwrap();
    assert_eq!(pa, pb);
    papers.push(pa);
    check(&on, &off, &papers, "after insert");

    // Insert + update: a review, then the phase flips to final.
    let ra = apps::conf::submit_review(&on, &Viewer::User(2), pa, 2, "ok").unwrap();
    let rb = apps::conf::submit_review(&off, &Viewer::User(2), pa, 2, "ok").unwrap();
    assert_eq!(ra, rb);
    apps::conf::set_phase(&on, apps::conf::PHASE_FINAL).unwrap();
    apps::conf::set_phase(&off, apps::conf::PHASE_FINAL).unwrap();
    check(&on, &off, &papers, "after review + phase flip");

    // Update: the review's score changes in place.
    on.update_fields("review", ra, &[(2, Value::Int(-1))], &Default::default())
        .unwrap();
    off.update_fields("review", rb, &[(2, Value::Int(-1))], &Default::default())
        .unwrap();
    check(&on, &off, &papers, "after review rescore");

    // Delete: the review is withdrawn from both twins.
    on.db.delete("review", ra, &Default::default()).unwrap();
    off.db.delete("review", rb, &Default::default()).unwrap();
    check(&on, &off, &papers, "after review delete");

    // The twins diverged only in *how* pages were produced: every
    // written table's slot is repaired in place by exactly one delta
    // apply at its next read, none by a full re-decode. Six writes:
    // the workload's own set-up phase write (repaired by the first
    // grid), the paper insert, the review insert (the grid's selective
    // review reads keep a `review` snapshot), the phase flip (its
    // delete + create land together before the grid reads), the
    // rescore and the delete.
    assert_eq!(
        on.db.decode_cache_stats().delta_applies,
        6,
        "the deltas-on twin repairs each write step's slot in place once"
    );
    assert_eq!(
        off.db.decode_cache_stats().delta_applies,
        0,
        "the ablated twin never applies deltas"
    );
}

/// Render-cache differential + adversarial per-viewer key safety: the
/// full all-pages × all-viewers conference grid served through the
/// executor with the render cache ON must be byte-identical to a
/// cache-OFF twin *and* to the hand-coded vanilla baseline, across
/// interleaved writes (paper insert, review insert, phase flip). The
/// serving order is adversarial on purpose: by the time any viewer
/// requests a page, the cache is already warm with *other* viewers'
/// renders of that same page — a key that under-distinguished viewers
/// would serve one viewer's bytes to another and break the grid
/// against the baseline immediately.
#[test]
fn render_cache_differential_all_pages_all_viewers_under_writes() {
    use jacqueline::{Executor, Request};
    let on = workload::conference(10, 8);
    let off = workload::conference(10, 8);
    let app_on = on.app;
    let app_off = off.app;
    let app_norepair = workload::conference(10, 8).app;
    let mut vanilla = on.vanilla;
    assert!(
        app_off.set_render_cache(false),
        "the ablation flag reports the previous (enabled) state"
    );
    assert!(
        app_norepair.set_fragment_repair(false),
        "fragment repair defaults on; this leg ablates it (cache stays on)"
    );
    let router = apps::conf::router();
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=10).map(Viewer::User))
        .collect();

    let grid = |app: &jacqueline::App, papers: &[i64]| -> Vec<String> {
        let mut requests = Vec::new();
        for viewer in &viewers {
            requests.push(Request::new("papers/all", viewer.clone()));
            requests.push(Request::new("users/all", viewer.clone()));
            for paper in papers {
                requests.push(
                    Request::new("papers/one", viewer.clone()).with_param("id", &paper.to_string()),
                );
            }
            for user in 1..=10 {
                requests.push(
                    Request::new("users/one", viewer.clone()).with_param("id", &user.to_string()),
                );
            }
        }
        Executor::run(app, &router, &requests)
            .into_iter()
            .map(|r| {
                assert_eq!(r.status, 200);
                r.body
            })
            .collect()
    };
    let baseline = |vanilla: &mut apps::conf_vanilla::ConfVanilla,
                    viewers: &[Viewer],
                    papers: &[i64]|
     -> Vec<String> {
        let mut pages = Vec::new();
        for viewer in viewers {
            pages.push(vanilla.all_papers(viewer));
            pages.push(vanilla.all_users(viewer));
            for paper in papers {
                pages.push(vanilla.single_paper(viewer, *paper));
            }
            for user in 1..=10 {
                pages.push(vanilla.single_user(viewer, user));
            }
        }
        pages
    };

    let mut papers: Vec<i64> = (1..=8).collect();
    // Cold pass populates, warm pass must serve the same bytes back.
    let cold = grid(&app_on, &papers);
    let warm = grid(&app_on, &papers);
    assert_eq!(warm, cold, "hits must replay the rendered bytes exactly");
    let warm_stats = app_on.render_cache_stats();
    assert_eq!(
        warm_stats.hits as usize,
        cold.len(),
        "the second pass must be all hits"
    );
    assert_eq!(grid(&app_off, &papers), cold, "cache-off twin agrees");
    assert_eq!(grid(&app_norepair, &papers), cold, "repair-off twin agrees");
    assert_eq!(
        baseline(&mut vanilla, &viewers, &papers),
        cold,
        "hand-coded baseline agrees"
    );
    let off_stats = app_off.render_cache_stats();
    assert_eq!(
        (off_stats.hits, off_stats.misses),
        (0, 0),
        "the ablated twin never consults the cache"
    );

    // Interleaved writes, mirrored into all three worlds.
    let stages: Vec<&str> = vec!["after paper insert", "after review", "after phase flip"];
    for stage in stages {
        match stage {
            "after paper insert" => {
                let a = apps::conf::submit_paper(&app_on, &Viewer::User(3), "Cache paper").unwrap();
                let b =
                    apps::conf::submit_paper(&app_off, &Viewer::User(3), "Cache paper").unwrap();
                let n = apps::conf::submit_paper(&app_norepair, &Viewer::User(3), "Cache paper")
                    .unwrap();
                let v = vanilla.submit_paper(&Viewer::User(3), "Cache paper");
                assert_eq!((a, b, n), (v, v, v), "paper ids line up");
                papers.push(a);
            }
            "after review" => {
                let paper = *papers.last().unwrap();
                let a =
                    apps::conf::submit_review(&app_on, &Viewer::User(2), paper, 2, "ok").unwrap();
                let b =
                    apps::conf::submit_review(&app_off, &Viewer::User(2), paper, 2, "ok").unwrap();
                let n = apps::conf::submit_review(&app_norepair, &Viewer::User(2), paper, 2, "ok")
                    .unwrap();
                let v = vanilla.submit_review(&Viewer::User(2), paper, 2, "ok");
                assert_eq!((a, b, n), (v, v, v), "review ids line up");
            }
            "after phase flip" => {
                apps::conf::set_phase(&app_on, apps::conf::PHASE_FINAL).unwrap();
                apps::conf::set_phase(&app_off, apps::conf::PHASE_FINAL).unwrap();
                apps::conf::set_phase(&app_norepair, apps::conf::PHASE_FINAL).unwrap();
                vanilla.set_phase(apps::conf::PHASE_FINAL);
            }
            _ => unreachable!(),
        }
        // Double pass on the cached app: the first re-validates and
        // re-renders what the write invalidated, the second must hit —
        // and every byte must match the ablated twin and the baseline.
        let first = grid(&app_on, &papers);
        let second = grid(&app_on, &papers);
        assert_eq!(second, first, "{stage}: warm pass replays bytes");
        assert_eq!(grid(&app_off, &papers), first, "{stage}: cache-off twin");
        assert_eq!(
            grid(&app_norepair, &papers),
            first,
            "{stage}: repair-off twin"
        );
        assert_eq!(
            baseline(&mut vanilla, &viewers, &papers),
            first,
            "{stage}: baseline"
        );
    }
    let final_stats = app_on.render_cache_stats();
    assert!(
        final_stats.invalidated > 0,
        "the writes must actually invalidate stamped entries"
    );
    assert!(
        final_stats.hits > warm_stats.hits,
        "post-write passes must re-warm and hit again"
    );
    assert!(
        final_stats.repairs > 0,
        "the paper insert must repair the warm papers/all entries in place"
    );
    assert_eq!(
        app_norepair.render_cache_stats().repairs,
        0,
        "the repair-off twin never repairs — it pays full re-renders"
    );
}

/// Fragment-repair property test: over randomized interleavings of
/// paper inserts, in-place title updates, and deletes, the page grid
/// served for *every* viewer must stay byte-identical across three
/// worlds — fragments on (stale entries repaired from the journal),
/// fragments off (stale entries discarded, full re-render), and cache
/// off (ground truth) — after every single write. Seeds are pinned so
/// a failure replays deterministically; `users/all` rides along as
/// the no-fragment-spec control.
#[test]
fn fragment_repair_differential_randomized_interleavings() {
    use jacqueline::{Executor, Request};
    use microdb::Value;

    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    let router = apps::conf::router();
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=6).map(Viewer::User))
        .collect();
    for seed in [1u64, 7, 42, 0xbeef] {
        let mut rng = SplitMix64(seed);
        let repairing = workload::conference(6, 4).app;
        let discarding = workload::conference(6, 4).app;
        let uncached = workload::conference(6, 4).app;
        assert!(discarding.set_fragment_repair(false));
        assert!(uncached.set_render_cache(false));
        let grid = |app: &jacqueline::App| -> Vec<String> {
            let requests: Vec<Request> = viewers
                .iter()
                .flat_map(|v| {
                    [
                        Request::new("papers/all", v.clone()),
                        Request::new("users/all", v.clone()),
                    ]
                })
                .collect();
            Executor::run(app, &router, &requests)
                .into_iter()
                .map(|r| {
                    assert_eq!(r.status, 200);
                    r.body
                })
                .collect()
        };
        // Warm every world so the first write lands on stamped entries.
        let cold = grid(&repairing);
        assert_eq!(grid(&discarding), cold, "seed {seed}: warm-up");
        assert_eq!(grid(&uncached), cold, "seed {seed}: warm-up uncached");

        let mut papers: Vec<i64> = (1..=4).collect();
        for step in 0..24 {
            match rng.next() % 3 {
                0 => {
                    let author = 1 + (rng.next() % 6) as i64;
                    let title = format!("p{seed}-{step}");
                    let a = apps::conf::submit_paper(&repairing, &Viewer::User(author), &title)
                        .unwrap();
                    let b = apps::conf::submit_paper(&discarding, &Viewer::User(author), &title)
                        .unwrap();
                    let c =
                        apps::conf::submit_paper(&uncached, &Viewer::User(author), &title).unwrap();
                    assert_eq!((a, b), (c, c), "seed {seed} step {step}: ids line up");
                    papers.push(a);
                }
                1 => {
                    let jid = papers[(rng.next() as usize) % papers.len()];
                    let title = Value::from(format!("re{seed}-{step}"));
                    for app in [&repairing, &discarding, &uncached] {
                        app.update_fields("paper", jid, &[(0, title.clone())], &Default::default())
                            .unwrap();
                    }
                }
                _ => {
                    if papers.len() > 1 {
                        let ix = (rng.next() as usize) % papers.len();
                        let jid = papers.swap_remove(ix);
                        for app in [&repairing, &discarding, &uncached] {
                            app.db.delete("paper", jid, &Default::default()).unwrap();
                        }
                    }
                }
            }
            let now = grid(&repairing);
            assert_eq!(
                grid(&discarding),
                now,
                "seed {seed} step {step}: repair ≡ full re-render"
            );
            assert_eq!(
                grid(&uncached),
                now,
                "seed {seed} step {step}: repair ≡ uncached ground truth"
            );
        }
        let stats = repairing.render_cache_stats();
        assert!(
            stats.repairs > 0,
            "seed {seed}: the repairing world must exercise the repair path"
        );
        assert_eq!(
            discarding.render_cache_stats().repairs,
            0,
            "seed {seed}: the ablated world never repairs"
        );
    }
}

/// The O(1) claim, counter-pinned at scale: with 1024 papers on the
/// page, one `papers/submit` repairs exactly **one** fragment — the
/// `repaired_fragments` counter moves by 1, not by 1024 — and the
/// spliced page is byte-identical to a from-scratch faceted render.
#[test]
fn single_write_repairs_one_fragment_at_scale() {
    use jacqueline::{Executor, Request};
    let app = workload::conference(6, 4).app;
    let router = apps::conf::router();
    for i in 5..=1024i64 {
        let author = 1 + (i % 6);
        apps::conf::submit_paper(&app, &Viewer::User(author), &format!("bulk {i}")).unwrap();
    }
    let viewer = Viewer::User(2);
    let warm = Executor::run(
        &app,
        &router,
        &[
            Request::new("papers/all", viewer.clone()),
            Request::new("papers/all", viewer.clone()),
        ],
    );
    assert_eq!(warm[1].body, warm[0].body, "the second read is a hit");
    let before = app.render_cache_stats();

    apps::conf::submit_paper(&app, &Viewer::User(3), "the one new paper").unwrap();
    let repaired = Executor::run(&app, &router, &[Request::new("papers/all", viewer.clone())]);
    assert!(repaired[0].body.contains("the one new paper"));
    let after = app.render_cache_stats();
    assert_eq!(
        after.repairs - before.repairs,
        1,
        "the stale entry is repaired, not discarded"
    );
    assert_eq!(
        after.repaired_fragments - before.repaired_fragments,
        1,
        "one write to a 1024-row page re-renders one fragment, not a thousand"
    );
    assert_eq!(
        repaired[0].body,
        apps::conf::all_papers(&app, &viewer),
        "the spliced page equals a from-scratch render"
    );
}

/// Cache differential across *mutation*: pages rendered after a write
/// agree between cached and uncached apps (the cache must invalidate,
/// not serve stale facets).
#[test]
fn decode_cache_differential_survives_writes() {
    let cached = workload::conference(8, 6).app;
    let mut uncached = workload::conference(8, 6).app;
    uncached.db.set_decode_cache(false);
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=8).map(Viewer::User))
        .collect();
    // Warm the cache, then mutate both apps identically.
    for viewer in &viewers {
        assert_eq!(
            apps::conf::all_papers(&cached, viewer),
            apps::conf::all_papers(&uncached, viewer)
        );
    }
    let pj = apps::conf::submit_paper(&cached, &Viewer::User(3), "Post-cache paper").unwrap();
    let pu = apps::conf::submit_paper(&uncached, &Viewer::User(3), "Post-cache paper").unwrap();
    assert_eq!(pj, pu);
    apps::conf::set_phase(&cached, apps::conf::PHASE_FINAL).unwrap();
    apps::conf::set_phase(&uncached, apps::conf::PHASE_FINAL).unwrap();
    for viewer in &viewers {
        assert_eq!(
            apps::conf::all_papers(&cached, viewer),
            apps::conf::all_papers(&uncached, viewer),
            "post-write page for {viewer}"
        );
        assert_eq!(
            apps::conf::single_paper(&cached, viewer, pj),
            apps::conf::single_paper(&uncached, viewer, pj),
            "new paper page for {viewer}"
        );
    }
}

/// An update takes the object's labels from its binding row, so a
/// restored app updates exactly like the live one: grading
/// submissions after a restore from a checkpoint plus a write-log
/// tail — one checkpointed, one only in the log — keeps each
/// submission's two labels, and every page for every viewer equals
/// the never-restored app's.
#[test]
fn update_fields_after_restore_keeps_the_objects_labels() {
    let dir = std::env::temp_dir().join(format!("jacq_grade_after_restore_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = workload::courses(4);
    let mut app = w.app;
    app.enable_persistence(&dir).unwrap();
    let submit = |app: &jacqueline::App, a: i64| {
        apps::courses::submit_answer(app, &Viewer::User(w.student), a, &format!("answer-{a}"))
            .unwrap()
    };
    let checkpointed = submit(&app, 1);
    app.checkpoint_quiescent(&dir).unwrap();
    let logged = submit(&app, 2);

    let mut restored = jacqueline::App::new();
    apps::courses::register(&mut restored).unwrap();
    let stats = restored.restore_from(&dir).unwrap();
    assert_eq!(stats.creates_applied, 1, "the log's submission");
    for (i, s) in [checkpointed, logged].into_iter().enumerate() {
        for a in [&app, &restored] {
            apps::courses::grade_submission(a, s, 70 + i as i64).unwrap();
        }
        assert_eq!(
            restored.get("submission", s).unwrap().labels(),
            app.get("submission", s).unwrap().labels(),
            "submission {s} keeps its labels"
        );
        assert_eq!(app.get("submission", s).unwrap().labels().len(), 2);
    }
    let n_users = app.db.object_count("cuser").unwrap() as i64;
    let grid = |app: &jacqueline::App| {
        let mut pages = Vec::new();
        for viewer in std::iter::once(Viewer::Anonymous).chain((1..=n_users).map(Viewer::User)) {
            pages.push(apps::courses::all_courses(app, &viewer));
            for s in [checkpointed, logged] {
                pages.push(apps::courses::view_submission(app, &viewer, s));
            }
        }
        pages
    };
    let live = grid(&app);
    assert_eq!(grid(&restored), live);
    assert!(
        live.iter().any(|p| p.contains("answer-2 — grade 71")),
        "the student sees the graded log-only submission"
    );
    assert!(
        live.iter().any(|p| p.contains("[submission hidden]")),
        "others still see the public facet"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
