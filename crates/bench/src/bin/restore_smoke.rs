//! CI smoke for the persistence subsystem, over the real socket
//! path: run a server → write through it → checkpoint via the admin
//! route → kill the server and its process state → boot a fresh
//! server from the checkpoint directory → verify reads (and a
//! post-checkpoint log-replayed write) came back byte-identical.
//!
//! Exits non-zero with a message on the first divergence — CI treats
//! this like any failing step.

use std::process::ExitCode;
use std::time::Duration;

use apps::{serve, workload};
use jacqueline::Server;
use jbench::http::HttpClient;

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

fn run() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("restore_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = jacqueline::ServerConfig {
        conn_threads: 4,
        executor_threads: 4,
        read_timeout: Duration::from_secs(2),
        ..jacqueline::ServerConfig::default()
    };

    // 1. Run: the conference app with persistence enabled.
    let site = serve::conference_site_persistent(workload::conference(8, 6).app, &dir)
        .map_err(|e| format!("building the persistent site: {e}"))?;
    let server = Server::bind(site, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let mut client = HttpClient::connect(server.addr());
    check(client.login(2).status == 200, "login before the kill")?;

    // 2. Write: one paper before the checkpoint chain, one after
    //    (the last must survive purely via log replay). The site
    //    boot already took a *full* checkpoint, so the admin-route
    //    checkpoints here exercise the incremental path: only dirty
    //    chunks written, clean ones carried over by content hash.
    let submitted = client.post("papers/submit", "title=before+checkpoint");
    check(submitted.status == 200, "pre-checkpoint write accepted")?;
    let checkpoint = client.post("admin/checkpoint", "");
    check(
        checkpoint.status == 200 && checkpoint.text().starts_with("checkpoint:"),
        "admin/checkpoint succeeds for a logged-in session",
    )?;
    println!("restore_smoke: {}", checkpoint.text().trim_end());
    check(
        checkpoint.text().contains("mode=incremental"),
        "checkpoint after the boot-time full one runs incrementally",
    )?;
    check(
        !checkpoint.text().contains("chunks_reused=0 "),
        "an incremental checkpoint of a mostly-clean store reuses chunks",
    )?;
    let mid = client.post("papers/submit", "title=mid+checkpoints");
    check(mid.status == 200, "between-checkpoints write accepted")?;
    let second = client.post("admin/checkpoint", "");
    check(
        second.status == 200 && second.text().contains("mode=incremental"),
        "second checkpoint also incremental",
    )?;
    let health = client.get("admin/health");
    check(
        health.status == 200
            && health.text().contains("checkpoint mode=incremental")
            && health.text().contains("wal records=0"),
        "admin/health reports the checkpoint vector and a compacted WAL",
    )?;
    let late = client.post("papers/submit", "title=after+checkpoint");
    check(late.status == 200, "post-checkpoint write accepted")?;

    // Capture the pages this viewer (and an anonymous one) sees.
    let papers_before = client.get("papers/all");
    let users_before = client.get("users/all");
    let mut anon = HttpClient::connect(server.addr());
    let anon_before = anon.get("papers/all");
    check(papers_before.status == 200, "papers/all before the kill")?;

    // 3. Kill.
    server.shutdown();

    // 4. Restore into fresh process state and serve again.
    let restored_site =
        serve::conference_site_restored(&dir).map_err(|e| format!("boot-from-checkpoint: {e}"))?;
    let restored =
        Server::bind(restored_site, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;

    // 5. Verify reads: same viewers, same pages, same bytes — the
    //    anonymous view first.
    let mut anon = HttpClient::connect(restored.addr());
    let anon_after = anon.get("papers/all");
    // Leak canary: that paper exists only in the log, and a label
    // whose binding row was lost would default to shown.
    check(
        !anon_after.text().contains("after checkpoint"),
        "anonymous papers/all hides the log-only paper's title after restore",
    )?;
    check(
        anon_after.text() == anon_before.text(),
        "anonymous view byte-identical after restore",
    )?;
    let mut client = HttpClient::connect(restored.addr());
    check(client.login(2).status == 200, "login after the restore")?;
    let papers_after = client.get("papers/all");
    check(
        papers_after.text() == papers_before.text(),
        "papers/all byte-identical after restore",
    )?;
    check(
        papers_after.text().contains("before checkpoint")
            && papers_after.text().contains("mid checkpoints")
            && papers_after.text().contains("after checkpoint"),
        "the full-snapshotted, incrementally-snapshotted, and log-replayed writes all survived",
    )?;
    let users_after = client.get("users/all");
    check(
        users_after.text() == users_before.text(),
        "users/all byte-identical after restore",
    )?;

    // 6. The restored app keeps working: a fresh write, then read-back.
    let fresh = client.post("papers/submit", "title=post-restore");
    check(fresh.status == 200, "post-restore write accepted")?;
    check(
        client.get("papers/all").text().contains("post-restore"),
        "post-restore write visible",
    )?;
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("restore_smoke: all checks passed");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(what) => {
            eprintln!("restore_smoke FAILED: {what}");
            ExitCode::FAILURE
        }
    }
}
