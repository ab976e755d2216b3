//! The traced run of the served workloads: the server's per-request
//! pipeline rebuilt from the framework's public calls, each call timed
//! from outside.
//!
//! Per request, on one connection thread:
//! 1. `wire::read_request` on the request bytes (already off the socket);
//! 2. `Authenticator::authenticate`;
//! 3. `ExecutorService::serve`, whose `ServedResponse` splits the call
//!    into queue wait, service time and the rest (the reply hop);
//! 4. the response headers and `Response::serialize`.
//!
//! Everything else between the client's send and its read of the reply
//! is `socket`: kernel TCP, framing, the client's own formatting and
//! parsing, and thread wake-ups.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use jacqueline::wire;
use jacqueline::{
    AuthOutcome, CheckpointStats, ExecutorService, RenderCacheStatus, Request, Response, Site,
    Viewer,
};

use crate::client::Sample;
use crate::stats::us;

/// Layer times of one traced request, as the server side saw them.
#[derive(Clone, Debug)]
pub struct Layers {
    /// The request's `X-Bench-Id`.
    pub id: usize,
    pub parse: Duration,
    pub auth: Duration,
    pub queue: Duration,
    pub service: Duration,
    /// `serve` minus queue and service: submit, reply channel, wake-up.
    pub hop: Duration,
    pub serialize: Duration,
    pub cache: RenderCacheStatus,
    pub write: bool,
}

impl Layers {
    fn total(&self) -> Duration {
        self.parse + self.auth + self.queue + self.service + self.hop + self.serialize
    }
}

/// One checkpoint the traced run triggered.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub elapsed: Duration,
    pub stats: CheckpointStats,
    /// WAL `(records, bytes)` the checkpoint absorbed.
    pub wal: (u64, u64),
}

/// What the traced server recorded.
pub struct Traced<R> {
    pub driven: R,
    pub layers: Vec<Layers>,
    pub checkpoints: Vec<Checkpoint>,
}

/// Serves `site` through `service` on `listener` with the timed
/// pipeline, one thread per connection, while `drive` sends load to the
/// listener's address. With `checkpoint_every = Some((n, dir))` a
/// checkpoint thread runs `App::checkpoint_quiescent(dir)` whenever a
/// write leaves at least `n` WAL records pending — the threshold the
/// server's `CheckpointPolicy` would apply.
pub fn serve_traced<R>(
    site: &Site,
    service: &ExecutorService,
    listener: TcpListener,
    checkpoint_every: Option<(u64, &Path)>,
    drive: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<Traced<R>> {
    let addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let flag = AtomicBool::new(false);
    let in_flight = &flag;
    let (tx, rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let checkpointer = scope.spawn(move || {
            let mut done = Vec::new();
            let Some((_, dir)) = checkpoint_every else {
                return done;
            };
            for () in rx {
                let wal = site.app.wal_pressure();
                let started = Instant::now();
                if let Ok(stats) = site.app.checkpoint_quiescent(dir) {
                    done.push(Checkpoint {
                        elapsed: started.elapsed(),
                        stats,
                        wal,
                    });
                }
                in_flight.store(false, Ordering::SeqCst);
            }
            done
        });
        let (stop, listener) = (&stop, &listener);
        let acceptor = scope.spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break; // the wake-up connection
                }
                let Ok(stream) = stream else {
                    continue;
                };
                let tx = tx.clone();
                handlers.push(scope.spawn(move || {
                    let due = |app: &jacqueline::App| {
                        checkpoint_every.is_some_and(|(n, _)| app.wal_pressure().0 >= n)
                            && !in_flight.swap(true, Ordering::SeqCst)
                    };
                    handle(stream, site, service, &mut || {
                        if due(&site.app) {
                            let _ = tx.send(());
                        }
                    })
                }));
            }
            handlers
        });
        let driven = drive(addr);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let handlers = acceptor.join().expect("traced acceptor panicked");
        let mut layers = Vec::new();
        for h in handlers {
            layers.extend(h.join().expect("traced connection panicked"));
        }
        let checkpoints = checkpointer.join().expect("checkpoint thread panicked");
        Ok(Traced {
            driven,
            layers,
            checkpoints,
        })
    })
}

/// One request's bytes off the socket, plus its `X-Bench-Id`. `None`
/// at end of stream.
fn read_frame(reader: &mut impl BufRead) -> Option<(Vec<u8>, usize)> {
    let mut buf = Vec::new();
    let mut body = 0usize;
    let mut id = usize::MAX;
    loop {
        let start = buf.len();
        if reader.read_until(b'\n', &mut buf).ok()? == 0 {
            return None;
        }
        let line = std::str::from_utf8(&buf[start..]).ok()?.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                body = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-bench-id") {
                id = value.trim().parse().unwrap_or(usize::MAX);
            }
        }
    }
    let start = buf.len();
    buf.resize(start + body, 0);
    reader.read_exact(&mut buf[start..]).ok()?;
    Some((buf, id))
}

fn handle(
    stream: TcpStream,
    site: &Site,
    service: &ExecutorService,
    after_write: &mut dyn FnMut(),
) -> Vec<Layers> {
    let mut out = Vec::new();
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return out;
    };
    let mut reader = BufReader::new(stream);
    while let Some((bytes, id)) = read_frame(&mut reader) {
        let t0 = Instant::now();
        let Ok(parsed) = wire::read_request(&mut bytes.as_slice()) else {
            break;
        };
        let t1 = Instant::now();
        let viewer = match site.auth.authenticate(&parsed) {
            AuthOutcome::Anonymous => Some(Viewer::Anonymous),
            AuthOutcome::Viewer(v) => Some(v),
            AuthOutcome::BadToken => None,
        };
        let t2 = Instant::now();
        let keep_alive = parsed.keep_alive;
        let write = parsed.method == "POST";
        let (response, queue, service_time, cache, t3) = match viewer {
            Some(viewer) => {
                let served = service.serve(Request {
                    path: parsed.path,
                    viewer,
                    params: parsed.params,
                });
                let t3 = Instant::now();
                let response = served
                    .response
                    .with_header("X-Queue-Us", &served.queued.as_micros().to_string())
                    .with_header("X-Service-Us", &served.service.as_micros().to_string())
                    .with_header("X-Render-Cache", served.render_cache.as_str());
                (
                    response,
                    served.queued,
                    served.service,
                    served.render_cache,
                    t3,
                )
            }
            None => (
                Response::forbidden("invalid or expired session token"),
                Duration::ZERO,
                Duration::ZERO,
                RenderCacheStatus::Bypass,
                Instant::now(),
            ),
        };
        let wire_bytes = response.serialize(keep_alive, false);
        let t4 = Instant::now();
        if writer
            .write_all(&wire_bytes)
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        out.push(Layers {
            id,
            parse: t1 - t0,
            auth: t2 - t1,
            queue,
            service: service_time,
            hop: (t3 - t2).saturating_sub(queue + service_time),
            serialize: t4 - t3,
            cache,
            write,
        });
        if write {
            after_write();
        }
        if !keep_alive {
            break;
        }
    }
    out
}

/// One request's client-measured round trip split by layer.
#[derive(Clone, Debug)]
pub struct Split {
    pub layers: Layers,
    /// Round trip minus every timed layer, in microseconds.
    pub socket_us: f64,
}

/// Slack for the client's `f32` microsecond round trips.
const ROUNDING_US: f64 = 0.01;

/// Joins client samples with the server's layer records by request id.
/// A sample whose layers do not fit inside its round trip, or that has
/// no layer record, is returned in the error list.
pub fn split<T>(samples: &[Sample<T>], layers: &[Layers]) -> (Vec<Split>, Vec<usize>) {
    let mut by_id: Vec<Option<&Layers>> = vec![None; samples.len()];
    for l in layers {
        if let Some(slot) = by_id.get_mut(l.id) {
            *slot = Some(l);
        }
    }
    let mut splits = Vec::with_capacity(samples.len());
    let mut bad = Vec::new();
    for s in samples {
        let op = s.op as usize;
        let round_trip = f64::from(s.round_trip);
        match by_id.get(op).copied().flatten() {
            Some(l) if s.outcome.is_some() && us(l.total()) <= round_trip + ROUNDING_US => {
                splits.push(Split {
                    layers: l.clone(),
                    socket_us: (round_trip - us(l.total())).max(0.0),
                });
            }
            _ => bad.push(op),
        }
    }
    (splits, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Op, Template};

    /// In the traced run, every request's layer times plus its socket
    /// time add up to the round trip the client measured, and no layer
    /// time falls outside that round trip.
    #[test]
    fn layers_plus_socket_add_up_to_the_round_trip() {
        let conference = crate::data::conference(16, 12, 3);
        let site = apps::serve::conference_site(conference.app);
        let tokens: Vec<String> = conference
            .users
            .iter()
            .map(|u| site.auth.login(Viewer::User(u.jid)))
            .collect();
        let service = ExecutorService::start(
            std::sync::Arc::clone(&site.app),
            std::sync::Arc::clone(&site.router),
            2,
        );
        let table: Vec<Template> = (0..120)
            .map(|i| {
                let token = Some(tokens[i % tokens.len()].as_str());
                match i % 5 {
                    0 => Template::get("papers/all", token),
                    1 => Template::get("users/all", token),
                    2 => Template::get("papers/one?id=2", token),
                    3 => Template::get(&format!("users/one?id={}", 1 + i % 16), token),
                    _ => Template::post("papers/submit", "title=t", token),
                }
            })
            .collect();
        let ops: Vec<Op> = (0..table.len())
            .map(|i| Op {
                due: Duration::from_micros(400 * i as u64),
                request: i as u32,
            })
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let traced = serve_traced(&site, &service, listener, None, |addr| {
            client::open_loop(addr, &ops, &table, 2, &|_, r| r.status)
        })
        .unwrap();
        service.shutdown();
        let (splits, bad) = split(&traced.driven, &traced.layers);
        assert!(
            bad.is_empty(),
            "requests without a fitting layer record: {bad:?}"
        );
        assert_eq!(splits.len(), ops.len());
        for s in &splits {
            let l = &s.layers;
            let layers = us(l.parse + l.auth + l.queue + l.service + l.hop + l.serialize);
            let round_trip = f64::from(traced.driven[l.id].round_trip);
            assert!(
                (layers + s.socket_us - round_trip).abs() <= ROUNDING_US,
                "request {}: {layers} + {} != {round_trip}",
                l.id,
                s.socket_us
            );
            assert!(l.parse > Duration::ZERO && l.serialize > Duration::ZERO);
        }
        assert!(traced.driven.iter().all(|s| s.outcome == Some(200)));
    }
}
