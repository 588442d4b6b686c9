//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`SpanBuf`] is a preallocated, single-thread buffer: recording a
//! span never allocates, and spans past its capacity are counted, not
//! kept. Each thread that traces owns one buffer with its own id range,
//! so parents can point across buffers (a generator tick's parent is the
//! wave span on the main thread). Buffers are merged and written as JSON
//! lines when the run ends.

use crate::json::Json;
use rstp_net::TickClock;
use std::io::Write as _;
use std::path::Path;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer boundary name, e.g. `hub.send`.
    pub name: &'static str,
    /// Start, ns since the process stopwatch epoch.
    pub start_ns: u64,
    /// End, ns since the process stopwatch epoch.
    pub end_ns: u64,
    /// Wave index, where one applies.
    pub wave: Option<u32>,
    /// Session id, where one applies.
    pub session: Option<u32>,
}

/// Nanoseconds since `clock`'s epoch — the one stopwatch every span and
/// timed batch reads (through [`TickClock`], the workspace's sanctioned
/// clock).
#[must_use]
pub fn now_ns(clock: &TickClock) -> u64 {
    u64::try_from(clock.epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fixed-capacity span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    clock: TickClock,
    spans: Vec<Span>,
    next_id: u64,
    dropped: u64,
}

/// Width of each buffer's id range.
const ID_RANGE: u64 = 1 << 32;

impl SpanBuf {
    /// A buffer holding up to `cap` spans, issuing ids from
    /// `range · 2^32 + 1`. Disabled (records nothing) when `cap` is 0.
    #[must_use]
    pub fn new(clock: TickClock, range: u64, cap: usize) -> Self {
        SpanBuf {
            clock,
            spans: Vec::with_capacity(cap),
            next_id: range * ID_RANGE + 1,
            dropped: 0,
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.spans.capacity() > 0
    }

    /// The current stopwatch reading, or 0 when disabled (so an untraced
    /// run reads no clock on the traced paths).
    #[must_use]
    pub fn start(&self) -> u64 {
        if self.enabled() {
            now_ns(&self.clock)
        } else {
            0
        }
    }

    /// Reserves the id of a span whose children are recorded before it
    /// ends (0 when disabled); record it with [`SpanBuf::close`].
    pub fn open(&mut self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records span `id` (from [`SpanBuf::open`]) as running from
    /// `start_ns` until now.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        wave: Option<u32>,
        session: Option<u32>,
    ) {
        if id == 0 {
            return;
        }
        let end_ns = now_ns(&self.clock);
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            wave,
            session,
        });
    }

    /// Records a childless span from `start_ns` until now.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        wave: Option<u32>,
        session: Option<u32>,
    ) {
        let id = self.open();
        self.close(id, name, parent, start_ns, wave, session);
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Moves another buffer's spans into this one (capacity permitting).
    pub fn absorb(&mut self, other: SpanBuf) {
        self.dropped += other.dropped;
        for span in other.spans {
            self.push(span);
        }
    }

    /// Kept spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every kept span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        let opt = |v: Option<u32>| v.map_or(Json::Null, |v| Json::Num(f64::from(v)));
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("parent".into(), Json::Num(s.parent as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                ("wave".into(), opt(s.wave)),
                ("session".into(), opt(s.session)),
            ]);
            writeln!(out, "{}", line.render()).map_err(err)?;
        }
        out.flush().map_err(err)
    }
}
