#![warn(missing_docs)]

//! # apsp-trace — the workspace's one span recorder
//!
//! The paper checks its cost models one phase at a time (DiagUpdate,
//! DiagBcast, PanelUpdate, PanelBcast, OuterUpdate); every solver here
//! reports in that vocabulary through this crate.
//!
//! * [`span`] opens a named phase on the calling thread; the guard it returns
//!   closes it. Spans nest, and [`current_phase`] names the innermost one,
//!   which is how `mpi-sim` books every sent byte to the sender's phase.
//! * A [`Recorder`] is *installed on a thread* ([`Track::install`], or
//!   [`record`] for the common case); it is never passed through options.
//!   While one is installed, every span the thread closes and every send it
//!   reports ([`record_send`]) land on that thread's track, stamped against
//!   the recorder's epoch. A thread that spawns workers hands each one a
//!   track of its own ([`current`], [`Recorder::track`]), as `mpi-sim` does
//!   for its ranks.
//! * With nothing installed a span costs the push and pop of the phase stack
//!   and records nothing.
//! * A finished recording is a [`Trace`]: Chrome `trace_events` JSON
//!   ([`Trace::to_chrome_json`], the workspace's one writer) and a per-phase
//!   table computed from the trace alone ([`Trace::summary`]).
//!
//! ```
//! let (sum, trace) = apsp_trace::record("main", || {
//!     let _p = apsp_trace::span("OuterUpdate");
//!     (1..=4).sum::<u32>()
//! });
//! assert_eq!(sum, 10);
//! assert_eq!(trace.timelines[0].spans[0].name, "OuterUpdate");
//! assert!(trace.to_chrome_json().contains("\"name\":\"OuterUpdate\""));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The five phase names of one blocked-FW iteration, in paper order.
pub const PHASES: [&str; 5] =
    ["DiagUpdate", "DiagBcast", "PanelUpdate", "PanelBcast", "OuterUpdate"];

/// The phase a send is booked under when no span is open on its thread.
pub const UNTRACED: &str = "(untraced)";

/// One closed span; times are ns since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name.
    pub name: &'static str,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
}

impl Span {
    /// Span length in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One message leaving a recording thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgEvent {
    /// Send time, ns since the recorder's epoch.
    pub ts_ns: u64,
    /// Receiver (a world rank for `mpi-sim`).
    pub dst: usize,
    /// Payload bytes.
    pub bytes: usize,
    /// True when the message crossed node boundaries (NIC traffic).
    pub nic: bool,
    /// The sender's open phase at send time.
    pub phase: Option<&'static str>,
}

/// What one track recorded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Track name (`main`, `rank 3`, `gpu0`, …).
    pub name: String,
    /// Closed spans, in close order.
    pub spans: Vec<Span>,
    /// Sends, in send order.
    pub events: Vec<MsgEvent>,
}

/// Traffic booked to one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Inter-node bytes sent while the phase was open.
    pub nic_bytes: u64,
    /// Intra-node bytes sent while the phase was open.
    pub intra_bytes: u64,
    /// Inter-node message count.
    pub nic_msgs: u64,
    /// All messages, any locality.
    pub msgs: u64,
}

impl PhaseTraffic {
    /// Book one message of `bytes`; `nic` when it crossed node boundaries.
    pub fn add(&mut self, bytes: u64, nic: bool) {
        self.msgs += 1;
        if nic {
            self.nic_bytes += bytes;
            self.nic_msgs += 1;
        } else {
            self.intra_bytes += bytes;
        }
    }
}

struct Shared {
    epoch: Instant,
    timelines: Mutex<Vec<Arc<Mutex<Timeline>>>>,
}

/// Every update behind these locks is one push, so a lock poisoned by a
/// panicking thread still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A recording in progress, shared by the threads it is installed on: one
/// track each, all stamped against one epoch.
#[derive(Clone)]
pub struct Recorder(Arc<Shared>);

impl Recorder {
    fn new() -> Self {
        Recorder(Arc::new(Shared { epoch: Instant::now(), timelines: Mutex::new(Vec::new()) }))
    }

    /// A new track named `name`, after every track made before it. Install
    /// it on the thread that is to record into it.
    pub fn track(&self, name: impl Into<String>) -> Track {
        let timeline = Arc::new(Mutex::new(Timeline { name: name.into(), ..Timeline::default() }));
        lock(&self.0.timelines).push(timeline.clone());
        Track { shared: self.0.clone(), timeline }
    }

    /// Everything recorded so far, one timeline per track in creation order.
    fn finish(&self) -> Trace {
        Trace { timelines: lock(&self.0.timelines).iter().map(|t| lock(t).clone()).collect() }
    }
}

/// One track of a [`Recorder`], not installed yet.
pub struct Track {
    shared: Arc<Shared>,
    timeline: Arc<Mutex<Timeline>>,
}

impl Track {
    /// Make this the calling thread's track until the guard drops, when the
    /// track installed before it (if any) comes back.
    pub fn install(self) -> Installed {
        let prev = LOCAL.with(|l| l.borrow_mut().track.replace(self));
        Installed { prev, _thread: PhantomData }
    }

    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }
}

/// Guard of [`Track::install`]; it belongs to the installing thread.
pub struct Installed {
    prev: Option<Track>,
    _thread: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL.with(|l| l.borrow_mut().track = prev);
    }
}

struct Local {
    stack: Vec<&'static str>,
    track: Option<Track>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local { stack: Vec::new(), track: None }) };
}

/// The recorder installed on this thread, if any: the handle a thread uses
/// to give the threads it spawns tracks of their own.
pub fn current() -> Option<Recorder> {
    LOCAL.with(|l| l.borrow().track.as_ref().map(|t| Recorder(t.shared.clone())))
}

/// The innermost span open on this thread, if any.
pub fn current_phase() -> Option<&'static str> {
    LOCAL.with(|l| l.borrow().stack.last().copied())
}

/// Open span `name` on this thread until the guard drops. It is the
/// thread's [`current_phase`] meanwhile, and it is recorded when it closes
/// if a track was installed when it opened.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let start_ns = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.push(name);
        l.track.as_ref().map(Track::now_ns)
    });
    SpanGuard { name, start_ns, _thread: PhantomData }
}

/// Guard of an open [`span`]; it belongs to the opening thread.
pub struct SpanGuard {
    name: &'static str,
    start_ns: Option<u64>,
    _thread: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let l = &mut *l.borrow_mut();
            l.stack.pop();
            if let (Some(start_ns), Some(t)) = (self.start_ns, &l.track) {
                let span = Span { name: self.name, start_ns, end_ns: t.now_ns() };
                lock(&t.timeline).spans.push(span);
            }
        });
    }
}

/// Record that this thread sent `bytes` to `dst` while `phase` was open
/// (`nic`: across node boundaries). A no-op unless a track is installed.
pub fn record_send(dst: usize, bytes: usize, nic: bool, phase: Option<&'static str>) {
    LOCAL.with(|l| {
        if let Some(t) = &l.borrow().track {
            let event = MsgEvent { ts_ns: t.now_ns(), dst, bytes, nic, phase };
            lock(&t.timeline).events.push(event);
        }
    });
}

/// Run `f` with a fresh recorder installed on this thread as a track named
/// `track`. Returns `f`'s result and everything recorded meanwhile, on this
/// thread and on every track handed out from it.
pub fn record<R>(track: &str, f: impl FnOnce() -> R) -> (R, Trace) {
    let rec = Recorder::new();
    let out = {
        let _on = rec.track(track).install();
        f()
    };
    (out, rec.finish())
}

/// A finished recording.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// One timeline per track, in the order the tracks were made.
    pub timelines: Vec<Timeline>,
}

impl Trace {
    fn phase_wall_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.timelines.iter().flat_map(|t| &t.spans) {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Span time per phase name in µs, summed over timelines (concurrent
    /// tracks add up).
    pub fn phase_wall_us(&self) -> BTreeMap<&'static str, u64> {
        self.phase_wall_ns().into_iter().map(|(name, ns)| (name, ns / 1000)).collect()
    }

    /// Sends per phase they were booked under ([`UNTRACED`] outside any
    /// span), over all timelines.
    pub fn phase_traffic(&self) -> BTreeMap<&'static str, PhaseTraffic> {
        let mut out = BTreeMap::new();
        for e in self.timelines.iter().flat_map(|t| &t.events) {
            out.entry(e.phase.unwrap_or(UNTRACED))
                .or_insert_with(PhaseTraffic::default)
                .add(e.bytes as u64, e.nic);
        }
        out
    }

    /// Per-phase table computed from this trace alone: wall time summed over
    /// tracks and, when anything was sent, NIC bytes, NIC messages and all
    /// messages. The five paper phases come first, then the other names.
    pub fn summary(&self) -> String {
        let wall = self.phase_wall_ns();
        let traffic = self.phase_traffic();
        let mut names: Vec<&str> = Vec::new();
        for &name in PHASES.iter().chain(wall.keys()).chain(traffic.keys()) {
            if (wall.contains_key(name) || traffic.contains_key(name)) && !names.contains(&name) {
                names.push(name);
            }
        }
        let sends = !traffic.is_empty();
        let mut out = format!("{:<14} {:>12}", "phase", "wall (ms)");
        if sends {
            let _ = write!(out, " {:>14} {:>10} {:>10}", "nic bytes", "nic msgs", "msgs");
        }
        out.push('\n');
        for name in names {
            let ms = wall.get(name).copied().unwrap_or(0) as f64 / 1e6;
            let _ = write!(out, "{name:<14} {ms:>12.3}");
            if sends {
                let t = traffic.get(name).copied().unwrap_or_default();
                let _ = write!(out, " {:>14} {:>10} {:>10}", t.nic_bytes, t.nic_msgs, t.msgs);
            }
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_events` JSON (`chrome://tracing`, Perfetto): one track
    /// (`tid`) per timeline, named by a `thread_name` metadata event; spans
    /// are complete (`"X"`) events and sends instant (`"i"`) events carrying
    /// `dst`, `bytes`, `nic` and `phase`. Times are µs to the ns.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (tid, tl) in self.timelines.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}},",
                escape_json(&tl.name)
            );
            for s in &tl.spans {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
                     \"ts\":{},\"dur\":{}}},",
                    escape_json(s.name),
                    Micros(s.start_ns),
                    Micros(s.dur_ns())
                );
            }
            for e in &tl.events {
                let _ = write!(
                    out,
                    "{{\"name\":\"send\",\"cat\":\"msg\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{},\"args\":{{\"dst\":{},\"bytes\":{},\"nic\":{},\
                     \"phase\":\"{}\"}}}},",
                    Micros(e.ts_ns),
                    e.dst,
                    e.bytes,
                    e.nic,
                    escape_json(e.phase.unwrap_or(UNTRACED))
                );
            }
        }
        if out.ends_with(',') {
            out.pop();
        }
        out.push_str("]}");
        out
    }
}

/// ns written as µs with three decimals.
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_are_recorded_only_while_a_track_is_installed() {
        let outer = span("PanelBcast");
        assert_eq!(current_phase(), Some("PanelBcast"));
        let ((), trace) = record("main", || {
            assert!(current().is_some());
            let _inner = span("OuterUpdate");
            assert_eq!(current_phase(), Some("OuterUpdate"));
            let _pack = span("pack");
        });
        assert_eq!(current_phase(), Some("PanelBcast"));
        drop(outer);
        assert_eq!((current_phase(), current().is_none()), (None, true));
        // the span opened before the recorder was installed is not in it;
        // children close first
        let names: Vec<_> = trace.timelines[0].spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["pack", "OuterUpdate"]);
        let [pack, outer] = trace.timelines[0].spans[..] else { unreachable!() };
        assert!(outer.start_ns <= pack.start_ns && pack.end_ns <= outer.end_ns);
    }

    #[test]
    fn spawned_threads_record_on_tracks_in_creation_order() {
        let ((), trace) = record("main", || {
            let rec = current().expect("record installs a recorder");
            let tracks: Vec<Track> = (0..2).map(|w| rec.track(format!("worker {w}"))).collect();
            std::thread::scope(|s| {
                for (w, track) in tracks.into_iter().enumerate() {
                    s.spawn(move || {
                        let _on = track.install();
                        let _p = span("PanelBcast");
                        record_send(1 - w, 100, w == 0, current_phase());
                    });
                }
            });
            record_send(0, 7, true, None);
        });
        let names: Vec<_> = trace.timelines.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["main", "worker 0", "worker 1"]);
        assert_eq!(trace.timelines[1].events[0].dst, 1);
        let traffic = trace.phase_traffic();
        let pb = traffic["PanelBcast"];
        assert_eq!((pb.nic_bytes, pb.intra_bytes, pb.nic_msgs, pb.msgs), (100, 100, 1, 2));
        assert_eq!(traffic[UNTRACED].nic_bytes, 7);
        assert!(trace.phase_wall_us().contains_key("PanelBcast"));
    }

    fn sample() -> Trace {
        let span = |name, start_ns, end_ns| Span { name, start_ns, end_ns };
        Trace {
            timelines: vec![
                Timeline {
                    name: "rank \"0\"\n".into(),
                    spans: vec![span("io-wait", 0, 2_000), span("OuterUpdate", 1_234, 30_000)],
                    events: vec![MsgEvent { ts_ns: 1_500, dst: 1, bytes: 64, nic: true, phase: Some("DiagUpdate") }],
                },
                Timeline { name: "rank 1".into(), spans: vec![span("OuterUpdate", 1_000, 11_000)], events: vec![] },
            ],
        }
    }

    #[test]
    fn summary_puts_paper_phases_first_and_shows_traffic_only_when_sent() {
        let trace = sample();
        assert_eq!(trace.phase_wall_us()["OuterUpdate"], 28 + 10);
        let table = trace.summary();
        let rows: Vec<&str> = table.lines().map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(rows, ["phase", "DiagUpdate", "OuterUpdate", "io-wait"]);
        assert!(table.contains("nic bytes"), "{table}");
        let quiet = Trace { timelines: vec![Timeline { events: vec![], ..sample().timelines[0].clone() }] };
        assert!(!quiet.summary().contains("nic bytes"));
    }

    #[test]
    fn chrome_json_is_well_formed_in_microseconds_and_escapes_names() {
        let json = sample().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"name\":\"rank \\\"0\\\"\\n\""), "{json}");
        assert!(json.contains("\"ts\":1.234,\"dur\":28.766"), "{json}");
        assert!(json.contains("\"tid\":1") && json.contains("\"bytes\":64"));
        assert!(json.contains("\"phase\":\"DiagUpdate\""));
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
        assert_eq!(Trace::default().to_chrome_json(), "{\"traceEvents\":[]}");
    }
}
