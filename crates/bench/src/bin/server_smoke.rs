//! CI server smoke: start the conference app on an ephemeral port,
//! run the scripted request sequence (login → list → submit →
//! policy-denied view), and assert every status and body — a fast,
//! deterministic end-to-end probe of the whole socket stack
//! (wire parsing → session auth → admission + dispatch → serialize).
//!
//! Exits non-zero (panics) on the first mismatch, so the CI step
//! fails loudly.

use apps::{serve, workload};
use jacqueline::wire::WireResponse;
use jacqueline::{Server, ServerConfig};
use jbench::http::HttpClient;

fn check(what: &str, response: &WireResponse, status: u16, contains: &str) {
    assert_eq!(
        response.status,
        status,
        "[{what}] expected {status}, got {} ({})",
        response.status,
        response.text()
    );
    assert!(
        response.text().contains(contains),
        "[{what}] body missing {contains:?}:\n{}",
        response.text()
    );
    println!("ok: {what} -> {status}");
}

fn main() {
    let site = serve::conference_site(workload::conference(12, 8).app);
    let server =
        Server::bind(site, "127.0.0.1:0", ServerConfig::default()).expect("bind an ephemeral port");
    let addr = server.addr();
    println!("server smoke on http://{addr}");
    let mut client = HttpClient::connect(addr);

    // 1. Anonymous list: public facets only.
    let page = client.get("papers/all");
    check("anonymous papers/all", &page, 200, "(title hidden)");
    assert!(
        !page.text().contains("faceted systems"),
        "anonymous must not see real titles:\n{}",
        page.text()
    );

    // 2. Login as user 2 (a PC member in the workload) — POST only:
    // a GET must not mint tokens into URLs/logs.
    let refused = client.get("login?user=2");
    check("GET /login", &refused, 405, "requires POST");
    let login = client.login(2);
    check("login user=2", &login, 200, "s");
    let token = login.text();
    assert!(
        login
            .header("set-cookie")
            .is_some_and(|c| c.contains(&token)),
        "login must set the session cookie"
    );

    // 3. The same list through the session: titles visible.
    let page = client.get("papers/all");
    check("pc papers/all", &page, 200, "faceted systems");
    assert!(
        page.header("x-queue-us").is_some() && page.header("x-service-us").is_some(),
        "served responses report queue/service latency"
    );

    // 4. Submit a paper through the session.
    let submit = client.post("papers/submit", "title=Smoke+test+paper");
    check("papers/submit", &submit, 200, "");
    let jid: i64 = submit.text().parse().expect("submit returns the new jid");
    let mine = client.get(&format!("papers/one?id={jid}"));
    check(
        "papers/one (own submission)",
        &mine,
        200,
        "Smoke test paper",
    );

    // 5. Policy-denied requests: anonymous submit, forged token.
    let mut anon = HttpClient::connect(addr);
    let denied = anon.post("papers/submit", "title=sneaky");
    check("anonymous submit", &denied, 403, "login session");
    anon.set_token(Some("forged-token".to_owned()));
    let forged = anon.get("papers/all");
    check("forged token", &forged, 403, "invalid or expired");

    // 6. Error statuses stay distinct on the wire.
    let missing = client.get("papers/one");
    check("missing id param", &missing, 400, "numeric id");
    let unknown = client.get("no/such/route");
    check("unknown route", &unknown, 404, "not found");
    let bad_method = client.get("papers/submit");
    check("GET on a write route", &bad_method, 405, "requires POST");

    server.shutdown();
    println!("server smoke: all checks passed");
}
