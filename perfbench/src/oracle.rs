//! The policy-leak canary: every generated user's email is
//! `user<i>@example.org`, and the conference policy shows an email only
//! to its owner and to the chair. A page served to anyone else that
//! contains another user's address is a leak, and a leak fails the run.

const DOMAIN: &str = "@example.org";

/// The first email address in `body` that is not `own` (`None` for
/// the anonymous viewer, who owns none), if any.
pub fn email_leak(body: &str, own: Option<&str>) -> Option<String> {
    let bytes = body.as_bytes();
    let mut from = 0;
    while let Some(at) = body[from..].find(DOMAIN).map(|i| from + i) {
        let mut start = at;
        while start > 0 && bytes[start - 1].is_ascii_digit() {
            start -= 1;
        }
        if start >= 4 && &body[start - 4..start] == "user" && start < at {
            let email = &body[start - 4..at + DOMAIN.len()];
            if own != Some(email) {
                return Some(email.to_owned());
            }
        }
        from = at + DOMAIN.len();
    }
    None
}

/// Runs the canary on a known leak and a known clean page: false means
/// the canary itself is broken and the run cannot vouch for anything.
pub fn canary_self_test() -> bool {
    let own = "user7@example.org";
    let leaking =
        "== Users ==\nuser7 (org0) <user7@example.org>\nuser3 (org3) <user3@example.org>\n";
    let clean = "== Users ==\nuser7 (org0) <user7@example.org>\nuser3 (org3) <[email withheld]>\n";
    email_leak(leaking, Some(own)).as_deref() == Some("user3@example.org")
        && email_leak(clean, Some(own)).is_none()
        && email_leak("user17@example.org", Some(own)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_fires_on_a_leaking_response() {
        let body = "user12 (org5) <user12@example.org>\n";
        assert_eq!(
            email_leak(body, Some("user4@example.org")).as_deref(),
            Some("user12@example.org")
        );
        assert_eq!(
            email_leak(body, None).as_deref(),
            Some("user12@example.org")
        );
    }

    #[test]
    fn canary_is_quiet_on_own_and_withheld_emails() {
        let body = "user4 (org4) <user4@example.org>\nuser5 (org5) <[email withheld]>\n";
        assert_eq!(email_leak(body, Some("user4@example.org")), None);
        assert_eq!(email_leak("no addresses here", None), None);
        // A prefix of the viewer's own address is someone else's.
        assert!(email_leak("<user41@example.org>", Some("user4@example.org")).is_some());
    }

    #[test]
    fn self_test_passes() {
        assert!(canary_self_test());
    }
}
