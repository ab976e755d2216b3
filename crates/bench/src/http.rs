//! A minimal keep-alive HTTP client over jacqueline's wire layer,
//! shared by the CI smoke binaries (`server_smoke`, `restore_smoke`) —
//! one implementation of connect + session cookie + request
//! formatting instead of one per binary. (The `server_e2e` integration tests keep their own raw
//! clients on purpose: they test the byte format itself.)

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use jacqueline::wire::{read_response, WireResponse};

/// One keep-alive connection, optionally carrying a session token.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    token: Option<String>,
}

impl HttpClient {
    /// Connects (30s read timeout — harness servers answer in
    /// microseconds; a longer wait means something is wedged).
    ///
    /// # Panics
    ///
    /// Panics if the server is unreachable — these clients only ever
    /// talk to a server the same process just started.
    #[must_use]
    pub fn connect(addr: SocketAddr) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect to the harness server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        HttpClient {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            stream,
            token: None,
        }
    }

    /// Overrides the session token (e.g. to present a forged one).
    pub fn set_token(&mut self, token: Option<String>) {
        self.token = token;
    }

    fn cookie_header(&self) -> String {
        self.token
            .as_ref()
            .map_or_else(String::new, |t| format!("Cookie: session={t}\r\n"))
    }

    fn round_trip(&mut self, raw: String) -> WireResponse {
        self.stream
            .write_all(raw.as_bytes())
            .expect("write request to the harness server");
        read_response(&mut self.reader).expect("read harness response")
    }

    /// `GET /{page}` with the session cookie, on the keep-alive
    /// connection.
    ///
    /// # Panics
    ///
    /// Panics on transport failures (never on HTTP error statuses).
    pub fn get(&mut self, page: &str) -> WireResponse {
        let raw = format!(
            "GET /{page} HTTP/1.1\r\nHost: harness\r\n{}\r\n",
            self.cookie_header()
        );
        self.round_trip(raw)
    }

    /// `POST /{page}` with a form body and the session cookie.
    ///
    /// # Panics
    ///
    /// Panics on transport failures (never on HTTP error statuses).
    pub fn post(&mut self, page: &str, form: &str) -> WireResponse {
        let raw = format!(
            "POST /{page} HTTP/1.1\r\nHost: harness\r\n{}\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{form}",
            self.cookie_header(),
            form.len()
        );
        self.round_trip(raw)
    }

    /// POSTs `login` for `user`; on success the minted token is kept
    /// and sent as the session cookie on every later request.
    pub fn login(&mut self, user: i64) -> WireResponse {
        let response = self.post("login", &format!("user={user}"));
        if response.status == 200 {
            self.token = Some(response.text());
        }
        response
    }
}
