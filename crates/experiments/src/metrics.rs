//! Measurement extraction and tabular reporting.
//!
//! [`measure`] condenses one simulation run into a [`Measured`] record;
//! [`Table`] renders swept series as the aligned text / CSV "rows the paper
//! would plot".

use eagletree_controller::{wear_summary, ClassTable, MergeCounters, OpClass, ReliabilityStats};
use eagletree_core::Tail;
use eagletree_os::{Os, Stalled, ThreadStats};

use crate::columns::Col;

/// Condensed metrics of one simulation run, over a set of measured threads.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Completions per second across the measured threads' windows.
    pub iops: f64,
    pub reads: u64,
    pub writes: u64,
    pub read_mean_us: f64,
    pub read_p99_us: f64,
    /// Latency variability (stddev of read latency, µs).
    pub read_stddev_us: f64,
    pub write_mean_us: f64,
    pub write_p99_us: f64,
    pub write_stddev_us: f64,
    /// Tail percentiles over the *merged* latency histogram of all
    /// measured threads (unlike `read_p99_us`/`write_p99_us`, which keep
    /// their historical per-thread-max semantics).
    pub read_p50_us: f64,
    pub read_p999_us: f64,
    pub write_p50_us: f64,
    pub write_p999_us: f64,
    /// The merged read histogram's full tail.
    pub read_tail: Tail,
    /// Internal (non-application) flash ops issued: GC + WL + mapping +
    /// merge traffic, the interference QoS experiments trace.
    pub internal_ops: u64,
    /// Mean OS queue wait (µs).
    pub queue_wait_us: f64,
    /// Flash programs (incl. copy-back & translation) per app write.
    pub write_amplification: f64,
    pub gc_erases: u64,
    pub wl_erases: u64,
    pub mapping_fetches: u64,
    pub mapping_writebacks: u64,
    /// Hybrid-FTL merge counters (all zero outside the hybrid mapping).
    pub merges: MergeCounters,
    /// Erase-count imbalance across blocks.
    pub wear_stddev: f64,
    pub wear_max: u32,
    /// Virtual makespan of the whole run (seconds).
    pub makespan_s: f64,
    /// Media-reliability counters — `Some` only when the run had a fault
    /// model installed, so fault-free outputs carry no reliability columns.
    pub reliability: Option<ReliabilityStats>,
}

/// Controller counter snapshot, for measuring steady-state deltas after a
/// preconditioning phase (so fill traffic does not dilute WA and GC
/// metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnapshot {
    pub programs: u64,
    pub copybacks: u64,
    pub app_writes: u64,
    pub gc_erases: u64,
    pub wl_erases: u64,
    pub mapping_fetches: u64,
    pub mapping_writebacks: u64,
    pub merges: MergeCounters,
    /// Flash ops issued per [`OpClass`] (scheduler's `issued` table), so
    /// steady-phase deltas can attribute device traffic to app vs. GC vs.
    /// WL vs. mapping vs. merge classes.
    pub issued_per_class: ClassTable,
}

/// Snapshot the controller counters now.
pub fn snapshot(os: &Os) -> CounterSnapshot {
    let c = os.controller();
    let a = c.array().counters();
    let s = c.stats();
    CounterSnapshot {
        programs: a.programs,
        copybacks: a.copybacks,
        app_writes: s.app_writes_completed,
        gc_erases: s.gc_erases,
        wl_erases: s.wl_erases,
        mapping_fetches: s.mapping_fetches,
        mapping_writebacks: s.mapping_writebacks,
        merges: c.merge_counters(),
        issued_per_class: s.issued,
    }
}

/// Internal-class (non-application) ops in an issued table.
fn internal_ops(issued: &ClassTable) -> u64 {
    OpClass::ALL
        .iter()
        .filter(|c| c.is_internal())
        .map(|&c| issued[c as usize])
        .sum()
}

/// Extract metrics for the measured threads, with controller counters
/// reported as deltas since `base`.
pub fn measure_since(os: &Os, threads: &[usize], base: &CounterSnapshot) -> Measured {
    let mut m = measure(os, threads);
    let now = snapshot(os);
    let dw = now.app_writes.saturating_sub(base.app_writes);
    let dp = (now.programs + now.copybacks).saturating_sub(base.programs + base.copybacks);
    m.write_amplification = if dw == 0 { 0.0 } else { dp as f64 / dw as f64 };
    m.gc_erases = now.gc_erases - base.gc_erases;
    m.wl_erases = now.wl_erases - base.wl_erases;
    m.mapping_fetches = now.mapping_fetches - base.mapping_fetches;
    m.mapping_writebacks = now.mapping_writebacks - base.mapping_writebacks;
    m.internal_ops =
        internal_ops(&now.issued_per_class) - internal_ops(&base.issued_per_class);
    m.merges = MergeCounters {
        switch_merges: now.merges.switch_merges - base.merges.switch_merges,
        partial_merges: now.merges.partial_merges - base.merges.partial_merges,
        full_merges: now.merges.full_merges - base.merges.full_merges,
        refresh_merges: now.merges.refresh_merges - base.merges.refresh_merges,
        moves: now.merges.moves - base.merges.moves,
        stale: now.merges.stale - base.merges.stale,
        fillers: now.merges.fillers - base.merges.fillers,
        erases: now.merges.erases - base.merges.erases,
    };
    m
}

/// Extract metrics from `os` for the given measured threads.
pub fn measure(os: &Os, threads: &[usize]) -> Measured {
    let all = threads.iter().fold(ThreadStats::default(), |mut all, &t| {
        all.merge(os.thread_stats(t));
        all
    });
    // Per-thread terms: the worst thread's p99, means and stddevs weighted
    // by each thread's sample count, and the mean of thread queue waits.
    let (mut read_mean, mut read_sd, mut write_mean, mut write_sd) = (0.0, 0.0, 0.0, 0.0);
    let (mut read_p99, mut write_p99, mut wait) = (0.0f64, 0.0f64, 0.0);
    for &t in threads {
        let s = os.thread_stats(t);
        let rn = s.read_lat_us.count() as f64;
        let wn = s.write_lat_us.count() as f64;
        read_mean += s.read_lat_us.mean() * rn;
        read_sd += s.read_lat_us.stddev() * rn;
        write_mean += s.write_lat_us.mean() * wn;
        write_sd += s.write_lat_us.stddev() * wn;
        read_p99 = read_p99.max(s.read_latency.p99().as_micros_f64());
        write_p99 = write_p99.max(s.write_latency.p99().as_micros_f64());
        wait += s.queue_wait_us.mean();
    }
    let rn = all.read_lat_us.count() as f64;
    let wn = all.write_lat_us.count() as f64;
    let ctrl = os.controller();
    let cs = ctrl.stats();
    let wear = wear_summary(ctrl.array());
    let (rt, wt) = (all.tail(OpClass::AppRead), all.tail(OpClass::AppWrite));
    Measured {
        iops: all.throughput_iops(),
        reads: all.reads_completed,
        writes: all.writes_completed,
        read_mean_us: if rn > 0.0 { read_mean / rn } else { 0.0 },
        read_p99_us: read_p99,
        read_stddev_us: if rn > 0.0 { read_sd / rn } else { 0.0 },
        write_mean_us: if wn > 0.0 { write_mean / wn } else { 0.0 },
        write_p99_us: write_p99,
        write_stddev_us: if wn > 0.0 { write_sd / wn } else { 0.0 },
        read_p50_us: rt.p50.as_micros_f64(),
        read_p999_us: rt.p999.as_micros_f64(),
        write_p50_us: wt.p50.as_micros_f64(),
        write_p999_us: wt.p999.as_micros_f64(),
        read_tail: rt,
        internal_ops: internal_ops(&cs.issued),
        queue_wait_us: if threads.is_empty() { 0.0 } else { wait / threads.len() as f64 },
        write_amplification: ctrl.write_amplification(),
        gc_erases: cs.gc_erases,
        wl_erases: cs.wl_erases,
        mapping_fetches: cs.mapping_fetches,
        mapping_writebacks: cs.mapping_writebacks,
        merges: ctrl.merge_counters(),
        wear_stddev: wear.stddev_erases,
        wear_max: wear.max_erases,
        makespan_s: os.now().as_nanos() as f64 / 1e9,
        reliability: ctrl.reliability(),
    }
}

/// One row of a result table: a parameter label plus named values.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub values: Vec<(&'static str, f64)>,
}

impl Row {
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    pub fn push(mut self, name: &'static str, value: f64) -> Self {
        debug_assert!(
            self.get(name).is_none(),
            "row `{}` already has a column `{name}`",
            self.label
        );
        self.values.push((name, value));
        self
    }

    /// Append `cols`, in order, each read off `src`.
    pub(crate) fn cols<S>(self, src: &S, cols: &[Col<S>]) -> Self {
        cols.iter().fold(self, |row, c| row.push(c.name, (c.get)(src)))
    }

    /// Fetch a value by column name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// A swept series: what one paper figure/table plots.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub param: String,
    pub rows: Vec<Row>,
    /// Points whose run stopped with work left (`Os::run`'s `Err`):
    /// `(label, ops the device can never issue)`. Not a result: kept out
    /// of rows, CSV and JSON; the harness warns on stderr.
    pub stuck: Vec<(String, usize)>,
}

impl Table {
    pub fn new(id: &str, title: &str, param: &str) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            param: param.to_string(),
            rows: Vec::new(),
            stuck: Vec::new(),
        }
    }

    /// Enter point `label` in [`Table::stuck`] when its run stopped.
    pub(crate) fn note(&mut self, label: &str, ran: &Result<(), Stalled>) {
        if let Err(s) = ran {
            let ops = s.device.as_ref().map_or(0, |d| d.pending_ops());
            self.stuck.push((label.to_string(), ops as usize));
        }
    }

    /// Ordered union of column names across rows.
    fn columns(&self) -> Vec<&'static str> {
        let mut cols = Vec::new();
        for r in &self.rows {
            for (n, _) in &r.values {
                if !cols.contains(n) {
                    cols.push(*n);
                }
            }
        }
        cols
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let cols = self.columns();
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        let mut widths = vec![self.param.len().max(
            self.rows.iter().map(|r| r.label.len()).max().unwrap_or(0),
        )];
        for c in &cols {
            let w = self
                .rows
                .iter()
                .map(|r| r.get(c).map_or(1, |v| format_num(v).len()))
                .max()
                .unwrap_or(1)
                .max(c.len());
            widths.push(w);
        }
        out.push_str(&format!("{:<w$}", self.param, w = widths[0]));
        for (i, c) in cols.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", c, w = widths[i + 1]));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:<w$}", r.label, w = widths[0]));
            for (i, c) in cols.iter().enumerate() {
                let cell = r.get(c).map_or("-".to_string(), format_num);
                out.push_str(&format!("  {:>w$}", cell, w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let cols = self.columns();
        let mut out = String::new();
        out.push_str(&self.param.to_string());
        for c in &cols {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.label);
            for c in &cols {
                out.push(',');
                if let Some(v) = r.get(c) {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Render a metric series as a Unicode sparkline, normalized to its own
/// maximum — the one-line "how did this evolve across time" plot (§2.3).
pub fn sparkline(points: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = points.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(points.len());
    }
    points
        .iter()
        .map(|&p| {
            #[expect(
                clippy::cast_sign_loss,
                reason = "a bar index; a negative or NaN point draws the lowest bar"
            )]
            let idx = ((p / max) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Downsample a series to at most `width` buckets by summing.
pub fn downsample(points: &[f64], width: usize) -> Vec<f64> {
    if points.len() <= width || width == 0 {
        return points.to_vec();
    }
    let mut out = vec![0.0; width];
    for (i, &p) in points.iter().enumerate() {
        out[i * width / points.len()] += p;
    }
    out
}

fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accessors() {
        let r = Row::new("x=1").push("iops", 100.0).push("wa", 1.5);
        assert_eq!(r.get("iops"), Some(100.0));
        assert_eq!(r.get("wa"), Some(1.5));
        assert_eq!(r.get("nope"), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a column `iops`")]
    fn row_rejects_a_duplicate_column() {
        let _ = Row::new("x=1").push("iops", 100.0).push("iops", 200.0);
    }

    #[test]
    fn table_renders_all_columns_aligned() {
        let mut t = Table::new("E0", "demo", "qd");
        t.rows.push(Row::new("1").push("iops", 1000.0).push("lat", 12.5));
        t.rows.push(Row::new("16").push("iops", 12_000.0).push("lat", 99.0));
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("iops"));
        assert!(s.contains("12000"));
        // Column alignment: every line has the same width prefix.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("E0", "demo", "qd");
        t.rows.push(Row::new("1").push("iops", 10.0));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("qd,iops"));
        assert!(csv.contains("1,10"));
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[3], '█');
        assert!(chars[1] < chars[2]);
    }

    #[test]
    fn sparkline_of_zeros_is_flat() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn downsample_preserves_total() {
        let pts: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&pts, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.iter().sum::<f64>(), pts.iter().sum::<f64>());
        // Short series pass through.
        assert_eq!(downsample(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }

    #[test]
    fn format_num_picks_precision() {
        assert_eq!(format_num(0.0), "0");
        assert_eq!(format_num(12345.6), "12346");
        assert_eq!(format_num(3.45678), "3.46");
        assert_eq!(format_num(0.001234), "0.0012");
    }
}
