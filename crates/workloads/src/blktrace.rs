//! Block-trace frontend: streaming parsers, characterization, synthesis.
//!
//! Production block traces are measured in the hundreds of millions of
//! IOs, so nothing in this module ever materializes a trace: every stage
//! is a pull-based [`TraceSource`] that yields one [`BlkRecord`] at a
//! time.
//!
//! * [`MsrCsvSource`] parses MSR-Cambridge-style CSV rows
//!   (`Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`, with
//!   the timestamp in Windows-filetime 100 ns ticks and offset/size in
//!   bytes) from any [`BufRead`], shifting the trace origin to `t = 0`
//!   and normalizing byte extents to device pages. Malformed rows and the
//!   header are counted and skipped, not fatal.
//! * [`Remap`] folds a trace's LBA space into a namespace's logical page
//!   space, so a trace captured from a multi-terabyte volume can drive a
//!   small simulated device (or one tenant's namespace).
//! * [`ChunkedSource`] adds chunked prefetch with a bounded buffer: at
//!   most `chunk` records are ever resident, and the observed high-water
//!   mark is exposed via [`ChunkedSource::peak_resident`] (or a shared
//!   [`AtomicUsize`] probe that survives the source being moved into a
//!   workload) so tests and experiments can assert the bound.
//! * [`characterize`] drains a source once and measures the knobs that
//!   matter to an SSD: footprint, read/write/trim mix, Zipf-fit skew,
//!   record size, and inter-arrival burstiness (mean + coefficient of
//!   variation). The resulting [`TraceProfile`] can [`synthesize`]
//!   (`TraceProfile::synthesize`) a matched [`SyntheticTrace`] generator
//!   for scale-up studies: same knobs, any record count.
//! * [`SynthCsv`] renders any [`TraceSource`] back to MSR CSV bytes
//!   lazily (it implements [`std::io::Read`]), which gives experiments a
//!   production-*shaped* multi-million-row CSV stream without a
//!   multi-gigabyte file on disk — and exercises the full parse path.
//!
//! Replay of these sources (open-loop at recorded timestamps, or
//! closed-loop preserving think times) lives in
//! [`crate::trace::ReplayThread`].

use std::collections::BTreeMap;
use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eagletree_core::{BlkOp, BlkRecord, OnlineStats, SimDuration, SimRng, SimTime, Zipf};

/// A pull-based stream of trace records.
///
/// Sources are *streaming* by contract: implementations must hold O(1)
/// state (plus, for [`ChunkedSource`], a bounded prefetch buffer) so that
/// a 100M-IO trace can be replayed without ever materializing it.
/// Records must arrive with non-decreasing `at` timestamps.
pub trait TraceSource {
    /// The next record, or `None` when the trace is exhausted.
    fn next_record(&mut self) -> Option<BlkRecord>;

    /// Short label for reports.
    fn label(&self) -> &str {
        "trace"
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_record(&mut self) -> Option<BlkRecord> {
        (**self).next_record()
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// Base of the Windows-filetime timestamps emitted by [`to_msr_csv_line`]
/// (an arbitrary instant in 2007, like the real MSR-Cambridge captures).
const MSR_EPOCH_TICKS: u64 = 128_166_372_000_000_000;

/// Render one record as an MSR-Cambridge CSV row (the inverse of
/// [`MsrCsvSource`]'s parser, up to the origin shift: a parsed trace's
/// first arrival is always `t = 0`). Timestamps are 100 ns filetime
/// ticks, so sub-tick nanoseconds round down.
pub fn to_msr_csv_line(rec: &BlkRecord, page_size: u64, host: &str, disk: u32) -> String {
    format!(
        "{},{},{},{},{},{},0",
        MSR_EPOCH_TICKS + rec.at.as_nanos() / 100,
        host,
        disk,
        rec.op.token(),
        rec.page * page_size,
        rec.pages as u64 * page_size,
    )
}

/// Streaming parser for MSR-Cambridge-style CSV block traces.
///
/// Format, one request per row:
///
/// ```text
/// Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
/// 128166372003061629,src1,0,Read,383496192,32768,613
/// ```
///
/// * `Timestamp` — Windows filetime, 100 ns ticks; the first parsed row
///   becomes the trace origin (`t = 0`) and later rows are clamped
///   non-decreasing.
/// * `Type` — `Read`/`Write` (case-insensitive; `R`/`W` accepted) plus
///   `Trim`/`Unmap`/`Discard` for deallocations.
/// * `Offset`/`Size` — bytes, normalized to `page_size`-sized pages
///   (partial first/last pages round outward).
/// * `Hostname`, `DiskNumber`, `ResponseTime` — ignored.
///
/// The header row and malformed rows are skipped and counted
/// ([`MsrCsvSource::lines_skipped`]); IO errors end the trace.
pub struct MsrCsvSource<R> {
    reader: R,
    line: String,
    page_size: u64,
    origin_ticks: Option<u64>,
    last_at_ns: u64,
    parsed: u64,
    skipped: u64,
}

impl<R: BufRead> MsrCsvSource<R> {
    /// Parse `reader` as MSR CSV over a device with `page_size`-byte pages.
    pub fn new(reader: R, page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be positive");
        MsrCsvSource {
            reader,
            line: String::new(),
            page_size,
            origin_ticks: None,
            last_at_ns: 0,
            parsed: 0,
            skipped: 0,
        }
    }

    /// Rows successfully parsed so far.
    pub fn records_parsed(&self) -> u64 {
        self.parsed
    }

    /// Rows skipped so far (header, malformed).
    pub fn lines_skipped(&self) -> u64 {
        self.skipped
    }

}

fn parse_msr_row(
    row: &str,
    page_size: u64,
    origin_ticks: &mut Option<u64>,
    last_at_ns: &mut u64,
) -> Option<BlkRecord> {
    let mut fields = row.split(',');
    let ticks: u64 = fields.next()?.trim().parse().ok()?;
    let _host = fields.next()?;
    let _disk = fields.next()?;
    let op = match fields.next()?.trim() {
        t if t.eq_ignore_ascii_case("read") || t.eq_ignore_ascii_case("r") => BlkOp::Read,
        t if t.eq_ignore_ascii_case("write") || t.eq_ignore_ascii_case("w") => BlkOp::Write,
        t if t.eq_ignore_ascii_case("trim")
            || t.eq_ignore_ascii_case("unmap")
            || t.eq_ignore_ascii_case("discard") =>
        {
            BlkOp::Trim
        }
        _ => return None,
    };
    let offset: u64 = fields.next()?.trim().parse().ok()?;
    let size: u64 = fields.next()?.trim().parse().ok()?;
    let origin = *origin_ticks.get_or_insert(ticks);
    let at_ns = ticks
        .saturating_sub(origin)
        .saturating_mul(100)
        .max(*last_at_ns);
    *last_at_ns = at_ns;
    let page = offset / page_size;
    let end = (offset + size.max(1)).div_ceil(page_size);
    let pages = end.saturating_sub(page).clamp(1, u32::MAX as u64) as u32;
    Some(BlkRecord::spanning(SimTime::from_nanos(at_ns), op, page, pages))
}

impl<R: BufRead> TraceSource for MsrCsvSource<R> {
    fn next_record(&mut self) -> Option<BlkRecord> {
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) | Err(_) => return None,
                Ok(_) => {}
            }
            let row = self.line.trim();
            if row.is_empty() {
                continue;
            }
            match parse_msr_row(row, self.page_size, &mut self.origin_ticks, &mut self.last_at_ns)
            {
                Some(rec) => {
                    self.parsed += 1;
                    return Some(rec);
                }
                None => self.skipped += 1,
            }
        }
    }

    fn label(&self) -> &str {
        "msr-csv"
    }
}

/// Folds a trace's LBA space into a target logical space.
///
/// Production traces address volumes far larger than a simulated device;
/// `Remap` wraps each record's first page modulo `logical_pages` (and
/// clips the span to the space) so the stream lands inside a device's —
/// or one tenant namespace's — logical pages while preserving the access
/// *pattern* (two requests to the same traced LBA still collide).
pub struct Remap<S> {
    inner: S,
    logical_pages: u64,
}

impl<S: TraceSource> Remap<S> {
    pub fn new(inner: S, logical_pages: u64) -> Self {
        assert!(logical_pages > 0, "target space must be non-empty");
        Remap {
            inner,
            logical_pages,
        }
    }
}

impl<S: TraceSource> TraceSource for Remap<S> {
    fn next_record(&mut self) -> Option<BlkRecord> {
        let mut rec = self.inner.next_record()?;
        rec.page %= self.logical_pages;
        let room = self.logical_pages - rec.page;
        rec.pages = (rec.pages as u64).min(room).max(1) as u32;
        Some(rec)
    }

    fn label(&self) -> &str {
        "remap"
    }
}

/// Chunked prefetch with a bounded resident buffer.
///
/// Pulls up to `chunk` records from the inner source at a time and serves
/// them from a [`std::collections::VecDeque`]; refills only when the
/// buffer drains, so at most `chunk` records are ever resident regardless
/// of trace length. [`ChunkedSource::peak_resident`] reports the observed
/// high-water mark; [`ChunkedSource::with_probe`] mirrors it into a
/// shared counter for when the source is moved into a boxed workload.
pub struct ChunkedSource<S> {
    inner: Option<S>,
    buf: std::collections::VecDeque<BlkRecord>,
    chunk: usize,
    peak: usize,
    probe: Option<Arc<AtomicUsize>>,
}

impl<S: TraceSource> ChunkedSource<S> {
    pub fn new(inner: S, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        ChunkedSource {
            inner: Some(inner),
            buf: std::collections::VecDeque::with_capacity(chunk),
            chunk,
            peak: 0,
            probe: None,
        }
    }

    /// Mirror the peak resident count into `probe` (monotone max), so the
    /// bound stays observable after the source is boxed into a thread.
    pub fn with_probe(mut self, probe: Arc<AtomicUsize>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Highest number of records simultaneously resident so far.
    pub fn peak_resident(&self) -> usize {
        self.peak
    }

    fn refill(&mut self) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        while self.buf.len() < self.chunk {
            match inner.next_record() {
                Some(rec) => self.buf.push_back(rec),
                None => {
                    self.inner = None;
                    break;
                }
            }
        }
        self.peak = self.peak.max(self.buf.len());
        if let Some(p) = &self.probe {
            p.fetch_max(self.peak, Ordering::Relaxed);
        }
    }
}

impl<S: TraceSource> TraceSource for ChunkedSource<S> {
    fn next_record(&mut self) -> Option<BlkRecord> {
        if self.buf.is_empty() {
            self.refill();
        }
        self.buf.pop_front()
    }

    fn label(&self) -> &str {
        "chunked"
    }
}

/// What the characterizer measured about a trace.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// Records drained.
    pub records: u64,
    /// Total pages issued (records weighted by span).
    pub pages_issued: u64,
    /// Distinct pages touched.
    pub footprint_pages: u64,
    /// Fraction of records that are reads / writes / trims.
    pub read_fraction: f64,
    pub write_fraction: f64,
    pub trim_fraction: f64,
    /// Least-squares Zipf exponent fitted to the page-popularity ranking
    /// (0 = uniform; ~1 = classic Zipf skew).
    pub zipf_theta: f64,
    /// Mean pages per record.
    pub mean_record_pages: f64,
    /// Mean inter-arrival gap between consecutive records.
    pub mean_interarrival: SimDuration,
    /// Coefficient of variation of the inter-arrival gaps (1 ≈ Poisson,
    /// larger = burstier).
    pub interarrival_cv: f64,
    /// Arrival instant of the last record (trace duration).
    pub span: SimDuration,
}

/// Drain `src` and measure its shape. One pass, memory bounded by the
/// footprint (a per-page popularity count — after [`Remap`], at most the
/// target logical space).
pub fn characterize<S: TraceSource>(src: &mut S) -> TraceProfile {
    let mut freq: BTreeMap<u64, u64> = BTreeMap::new();
    let mut gaps = OnlineStats::new();
    // Exact integer accumulator for the mean: the ns-typed profile
    // field must not inherit float summation error;
    // OnlineStats still feeds the (dimensionless) burstiness cv.
    let (mut gap_total, mut gap_count) = (0u128, 0u64);
    let mut last_at: Option<SimTime> = None;
    let (mut records, mut pages_issued) = (0u64, 0u64);
    let (mut reads, mut writes, mut trims) = (0u64, 0u64, 0u64);
    let mut span = SimDuration::ZERO;
    while let Some(rec) = src.next_record() {
        records += 1;
        match rec.op {
            BlkOp::Read => reads += 1,
            BlkOp::Write => writes += 1,
            BlkOp::Trim => trims += 1,
        }
        for i in 0..rec.pages as u64 {
            *freq.entry(rec.page + i).or_insert(0) += 1;
            pages_issued += 1;
        }
        if let Some(prev) = last_at {
            let gap = rec.at.saturating_since(prev).as_nanos();
            gap_total += gap as u128;
            gap_count += 1;
            gaps.record(gap as f64);
        }
        last_at = Some(rec.at);
        span = rec.at.saturating_since(SimTime::ZERO);
    }
    let frac = |n: u64| {
        if records == 0 {
            0.0
        } else {
            n as f64 / records as f64
        }
    };
    let mean_gap = if gaps.count() == 0 { 0.0 } else { gaps.mean() };
    let cv = if mean_gap > 0.0 {
        gaps.stddev() / mean_gap
    } else {
        0.0
    };
    TraceProfile {
        records,
        pages_issued,
        footprint_pages: freq.len() as u64,
        read_fraction: frac(reads),
        write_fraction: frac(writes),
        trim_fraction: frac(trims),
        zipf_theta: fit_zipf_theta(&freq),
        mean_record_pages: if records == 0 {
            0.0
        } else {
            pages_issued as f64 / records as f64
        },
        mean_interarrival: SimDuration::from_nanos(if gap_count == 0 {
            0
        } else {
            // Round-to-nearest integer mean; a u64 can't overflow since
            // the mean of u64 gaps is itself ≤ u64::MAX.
            ((gap_total + gap_count as u128 / 2) / gap_count as u128) as u64
        }),
        interarrival_cv: cv,
        span,
    }
}

/// Least-squares fit of `ln(count) = c - theta * ln(rank)` over the
/// popularity ranking. Returns 0 for degenerate inputs; clamped to
/// `[0, 3]` (real traces rarely exceed theta ≈ 1.2).
fn fit_zipf_theta(freq: &BTreeMap<u64, u64>) -> f64 {
    if freq.len() < 2 {
        return 0.0;
    }
    let mut counts: Vec<u64> = freq.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let n = counts.len() as f64;
    for (rank, &c) in counts.iter().enumerate() {
        let x = ((rank + 1) as f64).ln();
        let y = (c as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return 0.0;
    }
    let slope = (n * sxy - sx * sy) / denom;
    (-slope).clamp(0.0, 3.0)
}

impl TraceProfile {
    /// Build a matched synthetic generator: same footprint, op mix, skew,
    /// record size and burstiness, but any record count — the scale-up
    /// path when the captured trace is shorter than the experiment needs.
    #[expect(
        clippy::cast_sign_loss,
        reason = "pages per record, not a time; a NaN or negative mean becomes the .max(1) floor"
    )]
    pub fn synthesize(&self, records: u64, seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(
            SynthShape {
                footprint_pages: self.footprint_pages.max(1),
                read_fraction: self.read_fraction,
                trim_fraction: self.trim_fraction,
                zipf_theta: self.zipf_theta,
                pages_per_record: (self.mean_record_pages.round() as u32).max(1),
                mean_interarrival: self.mean_interarrival,
                interarrival_cv: self.interarrival_cv,
            },
            records,
            seed,
        )
    }
}

/// The knobs a [`SyntheticTrace`] reproduces.
#[derive(Debug, Clone)]
pub struct SynthShape {
    pub footprint_pages: u64,
    pub read_fraction: f64,
    pub trim_fraction: f64,
    pub zipf_theta: f64,
    pub pages_per_record: u32,
    pub mean_interarrival: SimDuration,
    /// Burstiness: matched with a two-point gap distribution —
    /// a zero gap with probability `q = cv² / (1 + cv²)`, else a wide gap
    /// of `mean / (1 - q)`, which reproduces both the mean and the CV.
    pub interarrival_cv: f64,
}

/// Deterministic trace generator matching a [`SynthShape`].
///
/// Pages follow a Zipf ranking scattered over the footprint by a
/// multiplicative hash (so hot pages are not spatially adjacent), the op
/// is Bernoulli per the read/trim mix, and gaps follow the two-point
/// burst mixture described on [`SynthShape::interarrival_cv`], quantized
/// to 100 ns so records survive an MSR CSV round-trip exactly.
pub struct SyntheticTrace {
    shape: SynthShape,
    zipf: Zipf,
    rng: SimRng,
    remaining: u64,
    at_ns: u64,
    emitted: u64,
    burst_q: f64,
    wide_gap_ns: u64,
}

impl SyntheticTrace {
    pub fn new(shape: SynthShape, records: u64, seed: u64) -> Self {
        let q = {
            let cv2 = shape.interarrival_cv * shape.interarrival_cv;
            (cv2 / (1.0 + cv2)).clamp(0.0, 0.99)
        };
        let mean = shape.mean_interarrival.as_nanos() as f64;
        // Quantize to 100 ns filetime ticks for exact CSV round-trips.
        let wide = SimDuration::from_nanos_f64((mean / (1.0 - q)).round());
        let wide = (wide.as_nanos() / 100) * 100;
        SyntheticTrace {
            zipf: Zipf::new(shape.footprint_pages.max(1) as usize, shape.zipf_theta),
            rng: SimRng::new(seed),
            remaining: records,
            at_ns: 0,
            emitted: 0,
            burst_q: q,
            wide_gap_ns: wide,
            shape,
        }
    }
}

impl TraceSource for SyntheticTrace {
    fn next_record(&mut self) -> Option<BlkRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.emitted > 0 && !self.rng.gen_bool(self.burst_q) {
            self.at_ns += self.wide_gap_ns;
        }
        self.emitted += 1;
        let rank = self.zipf.sample(&mut self.rng) as u64;
        // Scatter ranks over the footprint so hot pages are not adjacent
        // (same multiplicative-hash idiom as `gen::ZipfGen`).
        let page = rank.wrapping_mul(2_654_435_761) % self.shape.footprint_pages.max(1);
        let u = self.rng.gen_f64();
        let op = if u < self.shape.read_fraction {
            BlkOp::Read
        } else if u < self.shape.read_fraction + self.shape.trim_fraction {
            BlkOp::Trim
        } else {
            BlkOp::Write
        };
        Some(BlkRecord::spanning(
            SimTime::from_nanos(self.at_ns),
            op,
            page,
            self.shape.pages_per_record.max(1),
        ))
    }

    fn label(&self) -> &str {
        "synthetic"
    }
}

/// Lazily renders a [`TraceSource`] to MSR CSV bytes.
///
/// Implements [`std::io::Read`], so `BufReader<SynthCsv<…>>` feeds
/// [`MsrCsvSource`] a production-shaped multi-million-row CSV stream with
/// O(1) memory and no file on disk — the experiments' stand-in for a real
/// capture, exercising the entire parse path.
pub struct SynthCsv<S> {
    src: S,
    page_size: u64,
    buf: Vec<u8>,
    pos: usize,
    header_emitted: bool,
}

impl<S: TraceSource> SynthCsv<S> {
    pub fn new(src: S, page_size: u64) -> Self {
        SynthCsv {
            src,
            page_size,
            buf: Vec::new(),
            pos: 0,
            header_emitted: false,
        }
    }
}

impl<S: TraceSource> Read for SynthCsv<S> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if !self.header_emitted {
                self.header_emitted = true;
                self.buf
                    .extend_from_slice(b"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
            }
            if let Some(rec) = self.src.next_record() {
                self.buf
                    .extend_from_slice(to_msr_csv_line(&rec, self.page_size, "synth", 0).as_bytes());
                self.buf.push(b'\n');
            }
            if self.buf.is_empty() {
                return Ok(0);
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Vec<BlkRecord> {
        let mut src = MsrCsvSource::new(text.as_bytes(), 4096);
        std::iter::from_fn(|| src.next_record()).collect()
    }

    #[test]
    fn parses_msr_rows_and_shifts_origin() {
        let text = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n\
                    128166372003061629,src1,0,Read,8192,4096,613\n\
                    128166372003061729,src1,0,Write,4096,8192,100\n";
        let recs = parse(text);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at, SimTime::ZERO);
        assert_eq!(recs[0].op, BlkOp::Read);
        assert_eq!((recs[0].page, recs[0].pages), (2, 1));
        // 100 ticks later = 10 µs.
        assert_eq!(recs[1].at.as_nanos(), 10_000);
        assert_eq!((recs[1].page, recs[1].pages), (1, 2));
    }

    #[test]
    fn partial_pages_round_outward_and_ops_parse_loosely() {
        // 1 byte at offset 4095 straddles nothing: one page.
        let recs = parse("1000,h,0,w,4095,1,0\n1001,h,0,TRIM,4000,200,0\n");
        assert_eq!(recs[0].op, BlkOp::Write);
        assert_eq!((recs[0].page, recs[0].pages), (0, 1));
        // 200 bytes at 4000 straddles pages 0 and 1.
        assert_eq!(recs[1].op, BlkOp::Trim);
        assert_eq!((recs[1].page, recs[1].pages), (0, 2));
    }

    #[test]
    fn malformed_rows_are_counted_not_fatal() {
        let text = "garbage line\n1000,h,0,Read,0,4096,0\n1001,h,0,Levitate,0,4096,0\n\
                    1002,h,0,Write,zz,4096,0\n1003,h,0,Write,4096,4096,0\n";
        let mut src = MsrCsvSource::new(text.as_bytes(), 4096);
        let recs: Vec<_> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(src.records_parsed(), 2);
        assert_eq!(src.lines_skipped(), 3);
    }

    #[test]
    fn timestamps_clamp_non_decreasing() {
        let recs = parse("2000,h,0,Read,0,4096,0\n1000,h,0,Read,0,4096,0\n3000,h,0,Read,0,4096,0\n");
        assert_eq!(recs[0].at.as_nanos(), 0);
        assert_eq!(recs[1].at.as_nanos(), 0); // went backwards: clamped
        assert_eq!(recs[2].at.as_nanos(), 100_000);
    }

    #[test]
    fn remap_folds_into_target_space() {
        let mut src = Remap::new(
            SyntheticTrace::new(
                SynthShape {
                    footprint_pages: 100_000,
                    read_fraction: 0.5,
                    trim_fraction: 0.0,
                    zipf_theta: 0.9,
                    pages_per_record: 4,
                    mean_interarrival: SimDuration::from_micros(10),
                    interarrival_cv: 1.0,
                },
                500,
                7,
            ),
            64,
        );
        while let Some(r) = src.next_record() {
            assert!(r.last_page() < 64, "record escapes the target space: {r:?}");
        }
    }

    #[test]
    fn chunked_source_is_order_preserving_and_bounded() {
        let inner = SyntheticTrace::new(
            SynthShape {
                footprint_pages: 256,
                read_fraction: 0.6,
                trim_fraction: 0.02,
                zipf_theta: 1.0,
                pages_per_record: 1,
                mean_interarrival: SimDuration::from_micros(5),
                interarrival_cv: 2.0,
            },
            10_000,
            11,
        );
        let reference: Vec<_> = {
            let mut s = SyntheticTrace::new(
                SynthShape {
                    footprint_pages: 256,
                    read_fraction: 0.6,
                    trim_fraction: 0.02,
                    zipf_theta: 1.0,
                    pages_per_record: 1,
                    mean_interarrival: SimDuration::from_micros(5),
                    interarrival_cv: 2.0,
                },
                10_000,
                11,
            );
            std::iter::from_fn(move || s.next_record()).collect()
        };
        let mut chunked = ChunkedSource::new(inner, 64);
        let got: Vec<_> = std::iter::from_fn(|| chunked.next_record()).collect();
        assert_eq!(got, reference);
        assert!(chunked.peak_resident() <= 64);
        assert!(chunked.peak_resident() > 0);
    }

    #[test]
    fn characterizer_recovers_known_shape() {
        let shape = SynthShape {
            footprint_pages: 512,
            read_fraction: 0.7,
            trim_fraction: 0.0,
            zipf_theta: 1.0,
            pages_per_record: 1,
            mean_interarrival: SimDuration::from_micros(20),
            interarrival_cv: 1.5,
        };
        let mut src = SyntheticTrace::new(shape, 60_000, 42);
        let p = characterize(&mut src);
        assert_eq!(p.records, 60_000);
        assert!((p.read_fraction - 0.7).abs() < 0.02, "mix: {}", p.read_fraction);
        // Hash scattering over the footprint collides a little, so allow slack.
        assert!(p.footprint_pages >= 300 && p.footprint_pages <= 512);
        assert!(
            (p.zipf_theta - 1.0).abs() < 0.35,
            "theta fit: {}",
            p.zipf_theta
        );
        let mean_us = p.mean_interarrival.as_nanos() as f64 / 1_000.0;
        assert!((mean_us - 20.0).abs() < 2.0, "mean gap: {mean_us} µs");
        assert!(
            (p.interarrival_cv - 1.5).abs() < 0.2,
            "cv: {}",
            p.interarrival_cv
        );
    }

    #[test]
    fn synth_csv_round_trips_through_the_parser() {
        let shape = SynthShape {
            footprint_pages: 128,
            read_fraction: 0.5,
            trim_fraction: 0.1,
            zipf_theta: 0.8,
            pages_per_record: 2,
            mean_interarrival: SimDuration::from_micros(7),
            interarrival_cv: 2.0,
        };
        let reference: Vec<_> = {
            let mut s = SyntheticTrace::new(shape.clone(), 2_000, 3);
            std::iter::from_fn(move || s.next_record()).collect()
        };
        let csv = SynthCsv::new(SyntheticTrace::new(shape, 2_000, 3), 4096);
        let mut parsed = MsrCsvSource::new(BufReader::new(csv), 4096);
        let got: Vec<_> = std::iter::from_fn(|| parsed.next_record()).collect();
        assert_eq!(got, reference);
        assert_eq!(parsed.lines_skipped(), 1); // the header
    }

    #[test]
    fn uniform_trace_fits_near_zero_theta() {
        let mut src = SyntheticTrace::new(
            SynthShape {
                footprint_pages: 256,
                read_fraction: 1.0,
                trim_fraction: 0.0,
                zipf_theta: 0.0,
                pages_per_record: 1,
                mean_interarrival: SimDuration::from_micros(1),
                interarrival_cv: 0.0,
            },
            40_000,
            9,
        );
        let p = characterize(&mut src);
        assert!(p.zipf_theta < 0.2, "uniform fit drifted: {}", p.zipf_theta);
        assert!(p.interarrival_cv < 0.05);
    }
}
