//! The load generator: pre-built request schedules sent over
//! keep-alive connections, either on a fixed arrival schedule (open
//! loop) or back to back (closed loop).
//!
//! Everything here lives in the measured process, so it is kept small:
//! a schedule is a list of `(due, template)` pairs over a table of
//! distinct requests, and a sample is a few `f32`s plus what the
//! caller's check kept of the response.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use jacqueline::wire::{read_response, WireResponse};

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    pub fn round_trip(&mut self, raw: &[u8]) -> Result<WireResponse, String> {
        self.stream.write_all(raw).map_err(|e| e.to_string())?;
        read_response(&mut self.reader).map_err(|e| format!("{e:?}"))
    }

    /// POSTs `login` for `user` and returns the minted session token.
    pub fn login(&mut self, user: i64) -> Result<String, String> {
        let r =
            self.round_trip(&Template::post("login", &format!("user={user}"), None).bytes(0))?;
        if r.status == 200 {
            Ok(r.text())
        } else {
            Err(format!("login of {user} answered {}", r.status))
        }
    }
}

/// A request without its `X-Bench-Id`, which each send fills in with
/// the op's index so a traced server can match its layer times to the
/// client's.
#[derive(Clone, Debug)]
pub struct Template {
    head: String,
    body: String,
}

impl Template {
    fn new(method: &str, target: &str, token: Option<&str>, body: String) -> Template {
        let cookie = token.map_or_else(String::new, |t| format!("Cookie: session={t}\r\n"));
        Template {
            head: format!("{method} /{target} HTTP/1.1\r\nHost: bench\r\n{cookie}"),
            body,
        }
    }

    /// `GET /{target}` with the viewer's session cookie.
    pub fn get(target: &str, token: Option<&str>) -> Template {
        Template::new("GET", target, token, String::new())
    }

    /// `POST /{path}` with a form body.
    pub fn post(path: &str, form: &str, token: Option<&str>) -> Template {
        Template::new("POST", path, token, form.to_owned())
    }

    /// The wire bytes for op `id`.
    pub fn bytes(&self, id: usize) -> Vec<u8> {
        let form = if self.body.is_empty() {
            String::new()
        } else {
            format!(
                "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n",
                self.body.len()
            )
        };
        format!("{}X-Bench-Id: {id}\r\n{form}\r\n{}", self.head, self.body).into_bytes()
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Offset of the arrival from the start of the schedule.
    pub due: Duration,
    /// Index of the request in the schedule's template table.
    pub request: u32,
}

/// What happened to one request. Times are in microseconds.
pub struct Sample<T> {
    /// Index of the op in its schedule.
    pub op: u32,
    /// Open loop: due time → response read, less `gen_late`. Closed
    /// loop: send → response read.
    pub latency: f32,
    /// Send → response read.
    pub round_trip: f32,
    /// How late the generator woke: send time minus the later of the
    /// due time and the previous response on the same connection.
    pub gen_late: f32,
    /// What the caller's check kept of the response (checked on the
    /// connection's thread, so bodies are not held); `None` on a
    /// transport error.
    pub outcome: Option<T>,
}

/// Checks one response on the connection's thread: `(op index, response)`.
pub type Check<'a, T> = &'a (dyn Fn(usize, WireResponse) -> T + Sync);

fn micros(d: Duration) -> f32 {
    d.as_secs_f32() * 1e6
}

/// Sends `ops` on `conns` connections, connection `c` taking every
/// `conns`-th op at its due time. Latency counts from the due time, so
/// a stall also delays every later request on that connection.
///
/// The schedule runs in `SEGMENTS` consecutive parts, each on fresh
/// connections and client threads: the cores that the client and server
/// threads settle on set the latency level for as long as those threads
/// live, so one placement per run would make whole runs fast or slow.
pub fn open_loop<T: Send>(
    addr: SocketAddr,
    ops: &[Op],
    table: &[Template],
    conns: usize,
    check: Check<T>,
) -> Vec<Sample<T>> {
    const SEGMENTS: usize = 10;
    let per = ops.len().div_ceil(SEGMENTS).max(1);
    let mut all = Vec::with_capacity(ops.len());
    for start in (0..ops.len()).step_by(per) {
        let range = start..(start + per).min(ops.len());
        all.extend(run(addr, ops, table, range, conns, false, check).0);
    }
    all
}

/// Sends each op once, back to back, ignoring due times.
pub fn back_to_back<T: Send>(
    addr: SocketAddr,
    ops: &[Op],
    table: &[Template],
    conns: usize,
    check: Check<T>,
) -> Vec<Sample<T>> {
    closed_loop(addr, ops, table, conns, check).0
}

/// Sends each op once, back to back on `conns` connections, ignoring
/// due times; also returns the time from the start of sending to the
/// last response.
pub fn closed_loop<T: Send>(
    addr: SocketAddr,
    ops: &[Op],
    table: &[Template],
    conns: usize,
    check: Check<T>,
) -> (Vec<Sample<T>>, Duration) {
    run(addr, ops, table, 0..ops.len(), conns, true, check)
}

/// Sends `ops[range]`, on their schedule or (`closed`) back to back,
/// and times the sending from its start to the last response.
fn run<T: Send>(
    addr: SocketAddr,
    ops: &[Op],
    table: &[Template],
    range: Range<usize>,
    conns: usize,
    closed: bool,
    check: Check<T>,
) -> (Vec<Sample<T>>, Duration) {
    let connections: Vec<Option<Conn>> = (0..conns).map(|_| Conn::connect(addr).ok()).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let base = ops.get(range.start).map_or(Duration::ZERO, |op| op.due);
    let mut all = Vec::with_capacity(range.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<usize> = (range.start + c..range.end).step_by(conns).collect();
                let sender = Sender {
                    ops,
                    table,
                    check,
                    start,
                };
                scope.spawn(move || {
                    pin_to_first_cpu();
                    match (conn, closed) {
                        (Some(mut conn), false) => sender.open(&mut conn, &mine, base),
                        (Some(mut conn), true) => sender.closed(&mut conn, &mine),
                        (None, _) => mine.iter().map(|&i| failed(i)).collect(),
                    }
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("load connection thread panicked"));
        }
    });
    let elapsed = start.elapsed();
    all.sort_by_key(|s| s.op);
    (all, elapsed)
}

fn failed<T>(op: usize) -> Sample<T> {
    Sample {
        op: op as u32,
        latency: 0.0,
        round_trip: 0.0,
        gen_late: 0.0,
        outcome: None,
    }
}

/// One connection thread's view of the schedule.
struct Sender<'a, T> {
    ops: &'a [Op],
    table: &'a [Template],
    check: Check<'a, T>,
    start: Instant,
}

impl<T> Sender<'_, T> {
    fn send(&self, conn: &mut Conn, i: usize) -> (Instant, Option<WireResponse>, Instant) {
        let raw = self.table[self.ops[i].request as usize].bytes(i);
        let sent_at = Instant::now();
        let response = conn.round_trip(&raw).ok();
        (sent_at, response, Instant::now())
    }

    /// Sends ops `mine`, each at `start` plus its due offset past `base`.
    fn open(&self, conn: &mut Conn, mine: &[usize], base: Duration) -> Vec<Sample<T>> {
        let mut out = Vec::with_capacity(mine.len());
        let mut prev_done = self.start;
        let mut broken = false;
        for &i in mine {
            if broken {
                out.push(failed(i));
                continue;
            }
            let due = self.start + self.ops[i].due.saturating_sub(base);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (sent_at, response, done_at) = self.send(conn, i);
            broken = response.is_none();
            // The generator's own lateness (a sleep overshoots by the
            // kernel's timer slack) is reported apart; time spent
            // waiting for the connection because the previous response
            // was late is the server's and stays in the latency.
            let gen_late = sent_at.saturating_duration_since(due.max(prev_done));
            out.push(Sample {
                op: i as u32,
                latency: micros((done_at - due).saturating_sub(gen_late)),
                round_trip: micros(done_at - sent_at),
                gen_late: micros(gen_late),
                outcome: response.map(|r| (self.check)(i, r)),
            });
            prev_done = done_at;
        }
        out
    }

    /// Sends ops `mine` once, back to back.
    fn closed(&self, conn: &mut Conn, mine: &[usize]) -> Vec<Sample<T>> {
        let mut out = Vec::new();
        if mine.is_empty() {
            return out;
        }
        if let Some(wait) = self.start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        for &i in mine {
            let (sent_at, response, done_at) = self.send(conn, i);
            let broken = response.is_none();
            let round_trip = micros(done_at - sent_at);
            out.push(Sample {
                op: i as u32,
                latency: round_trip,
                round_trip,
                gen_late: 0.0,
                outcome: response.map(|r| (self.check)(i, r)),
            });
            if broken {
                break;
            }
        }
        out
    }
}

/// Confines the calling thread to the lowest-numbered CPU it may run on.
/// Every load thread shares that one core, so the server's threads settle
/// on the rest the same way in every run; left free, the client and
/// server threads land on the cores differently from run to run and the
/// rate moves with the placement. A failed call leaves the thread free.
fn pin_to_first_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `size` bytes of `mask`,
    // a live local of exactly that size; pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return;
        };
        let mut first = [0u64; 16];
        first[word] = 1 << mask[word].trailing_zeros();
        sched_setaffinity(0, size, first.as_ptr());
    }
}
