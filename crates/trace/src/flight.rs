//! The always-on flight recorder: a fixed-capacity, lock-free ring of
//! coarse serving events, dumped as a black-box JSON when something goes
//! wrong.
//!
//! Task-level tracing ([`crate::begin_rank`]) is opt-in and scoped to one
//! run; a production incident — a rank panic mid-factorization, a
//! watchdog trip under starvation — usually happens on a run nobody was
//! tracing. The flight recorder is the layer below: it is **always on**,
//! records only *coarse* events (request admission/completion, batch
//! dispatch, factorize begin/end, cache evictions, watchdog trips, rank
//! panics), and costs one `fetch_add` plus four relaxed atomic stores per
//! event — negligible against the work each event represents, and safe to
//! call from any thread including a panic hook.
//!
//! On a panic unwind (via [`install_panic_hook`]) or a watchdog trip (via
//! [`crate::watchdog::analyze`]) the retained ring is written to
//! `target/blackbox-<ts>.json` together with the ids of every request
//! that was **in flight** (admitted, not completed) — so the operator can
//! answer "which requests did this incident eat?" after the process is
//! gone.
//!
//! Concurrency model: writers claim a slot with a `fetch_add` on the
//! global cursor and publish it seqlock-style (sequence stored last, with
//! `Release`); the dumper validates each slot's sequence and skips torn
//! ones. The dump is best-effort forensics, not a consistent snapshot —
//! exactly the black-box trade-off.

use pastix_json::{obj, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Ring capacity in events. Power of two; at the coarse event rate
/// (a handful per request) this holds the last few thousand requests.
const CAPACITY: usize = 4096;

/// The coarse event vocabulary of the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A request was admitted to the serving queue (`a` = request id).
    RequestStart = 0,
    /// A request completed (`a` = request id, `b` = latency ns).
    RequestEnd = 1,
    /// A coalesced batch was handed to the solver (`a` = batch seq,
    /// `b` = width).
    BatchDispatch = 2,
    /// A numeric factorization started (`a` = matrix fingerprint low
    /// bits).
    FactorizeStart = 3,
    /// The factorization finished (`a` = fingerprint low bits, `b` =
    /// wall ns).
    FactorizeEnd = 4,
    /// The factor cache evicted an entry (`a` = fingerprint low bits,
    /// `b` = freed bytes).
    CacheEvict = 5,
    /// The watchdog flagged a rank as stalled (`a` = rank).
    WatchdogTrip = 6,
    /// A rank's worker panicked (`a` = rank).
    RankPanic = 7,
    /// A phase fence at the run level (`a` = phase id).
    PhaseFence = 8,
    /// Free-form marker (`a`, `b` caller-defined).
    Mark = 9,
    /// A request was refused before it reached the solver (`a` = request
    /// id, `b` = reason code); it is no longer in flight.
    RequestRejected = 10,
}

impl FlightKind {
    /// Stable name (dump JSON).
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::RequestStart => "request_start",
            FlightKind::RequestEnd => "request_end",
            FlightKind::BatchDispatch => "batch_dispatch",
            FlightKind::FactorizeStart => "factorize_start",
            FlightKind::FactorizeEnd => "factorize_end",
            FlightKind::CacheEvict => "cache_evict",
            FlightKind::WatchdogTrip => "watchdog_trip",
            FlightKind::RankPanic => "rank_panic",
            FlightKind::PhaseFence => "phase_fence",
            FlightKind::Mark => "mark",
            FlightKind::RequestRejected => "request_rejected",
        }
    }

    fn name_of(k: u8) -> &'static str {
        match k {
            0 => "request_start",
            1 => "request_end",
            2 => "batch_dispatch",
            3 => "factorize_start",
            4 => "factorize_end",
            5 => "cache_evict",
            6 => "watchdog_trip",
            7 => "rank_panic",
            8 => "phase_fence",
            9 => "mark",
            10 => "request_rejected",
            _ => "unknown",
        }
    }
}

/// One decoded ring entry (dump-side view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (monotone admission order).
    pub seq: u64,
    /// Nanoseconds since the recorder's first event.
    pub at_ns: u64,
    /// Event kind (raw [`FlightKind`] discriminant).
    pub kind: u8,
    /// First payload word (see [`FlightKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

struct Slot {
    // 0 = empty/being-written; otherwise seq + 1.
    seq: AtomicU64,
    at_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Recorder {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    epoch: std::time::Instant,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        slots: (0..CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                at_ns: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect(),
        cursor: AtomicU64::new(0),
        epoch: std::time::Instant::now(),
    })
}

/// Master switch, used only by overhead measurements that need a
/// recorder-off baseline; deployments leave it on (the default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Records one event. Lock-free: one `fetch_add` + five relaxed/release
/// stores; callable from any thread, including inside a panic hook.
#[inline]
pub fn record(kind: FlightKind, a: u64, b: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let r = recorder();
    let seq = r.cursor.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(seq as usize) % CAPACITY];
    // Invalidate first so a concurrent dumper skips the torn window.
    slot.seq.store(0, Ordering::Release);
    slot.at_ns
        .store(r.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    slot.kind.store(kind as u64, Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.seq.store(seq + 1, Ordering::Release);
}

/// Total events admitted so far (including ones the ring has since
/// overwritten).
pub fn recorded() -> u64 {
    RECORDER.get().map_or(0, |r| r.cursor.load(Ordering::Relaxed))
}

/// Decodes the retained ring, oldest first, skipping torn slots.
pub fn snapshot() -> Vec<FlightEvent> {
    let Some(r) = RECORDER.get() else {
        return Vec::new();
    };
    let cursor = r.cursor.load(Ordering::Acquire);
    let lo = cursor.saturating_sub(CAPACITY as u64);
    let mut out = Vec::with_capacity((cursor - lo) as usize);
    for seq in lo..cursor {
        let slot = &r.slots[(seq as usize) % CAPACITY];
        if slot.seq.load(Ordering::Acquire) != seq + 1 {
            continue; // torn or recycled mid-read
        }
        let ev = FlightEvent {
            seq,
            at_ns: slot.at_ns.load(Ordering::Relaxed),
            kind: slot.kind.load(Ordering::Relaxed) as u8,
            a: slot.a.load(Ordering::Relaxed),
            b: slot.b.load(Ordering::Relaxed),
        };
        // Validate the slot was not recycled while the fields were read.
        if slot.seq.load(Ordering::Acquire) == seq + 1 {
            out.push(ev);
        }
    }
    out
}

/// Request ids admitted but not completed, per the retained ring: a
/// `RequestStart` with no later `RequestEnd` or `RequestRejected`. (A start whose end was
/// overwritten can be misreported as in flight — the black box keeps the
/// *recent* truth, which is the one incidents need.)
pub fn requests_in_flight() -> Vec<u64> {
    let evs = snapshot();
    let mut open: Vec<u64> = Vec::new();
    for ev in &evs {
        if ev.kind == FlightKind::RequestStart as u8 {
            open.push(ev.a);
        } else if ev.kind == FlightKind::RequestEnd as u8 || ev.kind == FlightKind::RequestRejected as u8 {
            if let Some(i) = open.iter().position(|&id| id == ev.a) {
                open.remove(i);
            }
        }
    }
    open
}

/// Overrides the directory black-box dumps are written to (tests, or
/// deployments with a dedicated incident volume). `None` restores the
/// default resolution: `PASTIX_BLACKBOX_DIR`, else the workspace
/// `target/` directory.
pub fn set_blackbox_dir(dir: Option<&Path>) {
    *DUMP_DIR.lock().unwrap() = dir.map(Path::to_path_buf);
}

fn blackbox_dir() -> PathBuf {
    if let Some(d) = DUMP_DIR.lock().unwrap().clone() {
        return d;
    }
    if let Ok(d) = std::env::var("PASTIX_BLACKBOX_DIR") {
        return PathBuf::from(d);
    }
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
}

/// Serializes the black box: the retained events, the in-flight request
/// ids, and the dump reason.
pub fn blackbox_json(reason: &str) -> Json {
    let evs = snapshot();
    let rows: Vec<Json> = evs
        .iter()
        .map(|e| {
            obj([
                ("seq", Json::Num(e.seq as f64)),
                ("at_ns", Json::Num(e.at_ns as f64)),
                ("kind", Json::Str(FlightKind::name_of(e.kind).to_string())),
                ("a", Json::Num(e.a as f64)),
                ("b", Json::Num(e.b as f64)),
            ])
        })
        .collect();
    let in_flight: Vec<Json> = requests_in_flight()
        .into_iter()
        .map(|id| Json::Num(id as f64))
        .collect();
    obj([
        ("reason", Json::Str(reason.to_string())),
        ("recorded_total", Json::Num(recorded() as f64)),
        ("retained", Json::Num(rows.len() as f64)),
        ("requests_in_flight", Json::Arr(in_flight)),
        ("events", Json::Arr(rows)),
    ])
}

/// Dumps the black box to `<dir>/blackbox-<ts>-<n>.json` and returns the
/// path, or `None` when the write failed (the dump path must never be
/// able to crash the crashing process further).
pub fn dump_blackbox(reason: &str) -> Option<PathBuf> {
    let dir = blackbox_dir();
    let _ = std::fs::create_dir_all(&dir);
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("blackbox-{ts}-{n}.json"));
    let body = blackbox_json(reason).pretty();
    std::fs::write(&path, body).ok()?;
    Some(path)
}

/// Installs (once per process) a panic hook that records a
/// [`FlightKind::RankPanic`] event and dumps the black box before the
/// previous hook runs — so every panic, caught or fatal, leaves a
/// forensic record. Serving entry points call this; calling it again is
/// free.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            record(FlightKind::RankPanic, u64::MAX, 0);
            if let Some(p) = dump_blackbox("panic") {
                eprintln!("pastix: black box dumped to {}", p.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; keep the assertions order-free so
    // the tests survive parallel execution within this binary.

    #[test]
    fn record_and_snapshot_round_trip() {
        record(FlightKind::Mark, 111, 222);
        let evs = snapshot();
        assert!(evs
            .iter()
            .any(|e| e.kind == FlightKind::Mark as u8 && e.a == 111 && e.b == 222));
        // Sequence numbers are strictly increasing in the decoded view.
        for w in evs.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn in_flight_tracks_unmatched_starts() {
        record(FlightKind::RequestStart, 900_001, 0);
        record(FlightKind::RequestStart, 900_002, 0);
        record(FlightKind::RequestEnd, 900_001, 5);
        let open = requests_in_flight();
        assert!(open.contains(&900_002));
        assert!(!open.contains(&900_001));
        record(FlightKind::RequestEnd, 900_002, 9);
        assert!(!requests_in_flight().contains(&900_002));
    }

    #[test]
    fn ring_overwrites_but_keeps_recent() {
        for i in 0..(CAPACITY as u64 + 64) {
            record(FlightKind::PhaseFence, 700_000 + i, 0);
        }
        let evs = snapshot();
        assert!(evs.len() <= CAPACITY);
        // The newest event is retained.
        assert!(evs
            .iter()
            .any(|e| e.a == 700_000 + CAPACITY as u64 + 63));
    }

    #[test]
    fn dump_writes_named_file() {
        let dir = std::env::temp_dir().join("pastix-flight-test");
        record(FlightKind::RequestStart, 880_077, 0);
        let json = blackbox_json("unit-test");
        assert!(json
            .get("requests_in_flight")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|v| v.as_f64().ok() == Some(880_077.0)));
        // Dump through an explicit dir to avoid racing the global default.
        let _ = std::fs::create_dir_all(&dir);
        let ts = 424_242u64;
        let path = dir.join(format!("blackbox-{ts}.json"));
        std::fs::write(&path, json.pretty()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("unit-test"));
        assert!(body.contains("880077"));
        record(FlightKind::RequestEnd, 880_077, 1);
    }
}
