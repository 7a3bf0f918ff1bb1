//! The benchmark's own arithmetic: sample statistics, residual spans and
//! the in-memory span recorder. Nothing here calls into the workspace, so
//! the unit tests below check it on synthetic inputs.

use std::fmt::Write as _;
use std::time::Instant;

/// Which clock a metric was read from. Wall and simulated values are never
/// combined in one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time (`std::time::Instant`).
    Wall,
    /// The GPU simulator's cycle-accounted device time.
    Simulated,
    /// Not a time: a count, ratio or size.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Simulated => "simulated",
            Clock::None => "none",
        }
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentile a timing is reported at: the highest whole
/// percentile `p` such that at least 10 samples lie strictly beyond it,
/// i.e. at least 10 samples have a rank above `ceil(p/100 · n)`.
/// Returns `(p, value)`, or `None` when fewer than 11 samples exist and
/// no percentile qualifies.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// One timed interval around a call into a layer. Times are seconds since
/// the recorder's epoch; a residual span may end before it starts when its
/// siblings over-cover the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per call, so the untraced run measures the program alone.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh operation id; spans of one operation share it.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records `[start, end]` under `name`; returns its index for children.
    pub fn span(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let (start, end) = (at(start), at(end));
        self.push(name, op, parent, start, end)
    }

    /// Lays `parts` (name, seconds) end to end from the start of span
    /// `parent`, then closes the parent's interval with a residual child
    /// (`wall − Σ parts`), so the children sum to the parent's duration by
    /// construction. The residual is signed: parts that overlap and
    /// over-cover the wall show as a negative residual, not a vanishing one.
    pub fn children(&mut self, parent: Option<usize>, parts: &[(&str, f64)], residual_name: &str) {
        let Some(p) = parent else { return };
        let (op, mut at, end) = {
            let s = &self.spans[p];
            (s.op, s.start, s.end)
        };
        for &(name, secs) in parts {
            self.push(name, op, Some(p), at, at + secs);
            at += secs;
        }
        self.push(residual_name, op, Some(p), at, end);
    }

    fn push(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Median duration (seconds) of the spans called `name`; 0 if none.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// The spans as one JSON array (hand-written: the benchmark adds no
    /// dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_s\": {:.9}, \"end_s\": {:.9}}}{}",
                s.name,
                s.op,
                s.start,
                s.end,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn child_sum(t: &Tracer, parent: usize) -> f64 {
        t.spans()
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::duration)
            .sum()
    }

    fn parent_span(t: &mut Tracer, name: &str, wall: f64) -> usize {
        let start = Instant::now();
        let op = t.op();
        t.span(name, op, None, start, start + Duration::from_secs_f64(wall))
            .expect("tracer is on")
    }

    #[test]
    fn phases_plus_unattributed_equal_join_wall() {
        let mut t = Tracer::new(true);
        let join = parent_span(&mut t, "core.csh", 0.250);
        let phases = [("cpu.csh.sample", 0.01), ("cpu.csh.partition_r", 0.07)];
        t.children(Some(join), &phases, "core.csh.unattributed");
        let wall = t.spans()[join].duration();
        assert!((child_sum(&t, join) - wall).abs() < 1e-9);
        let unattributed = t.median("core.csh.unattributed");
        assert!((unattributed - (wall - 0.08)).abs() < 1e-9);
    }

    #[test]
    fn queue_exec_overhead_equal_round_trip() {
        let mut t = Tracer::new(true);
        let req = parent_span(&mut t, "service.request", 0.085);
        let parts = [("service.queue_wait", 0.002), ("service.exec", 0.006)];
        t.children(Some(req), &parts, "service.overhead");
        let rtt = t.spans()[req].duration();
        assert!((child_sum(&t, req) - rtt).abs() < 1e-9);
        assert!((t.median("service.overhead") - 0.077).abs() < 1e-6);
    }

    #[test]
    fn shard_exec_plus_ship_merge_equal_dispatch() {
        let mut t = Tracer::new(true);
        let dispatch = parent_span(&mut t, "cluster.dispatch", 1.2);
        t.children(
            Some(dispatch),
            &[("cluster.shard_exec", 0.4)],
            "cluster.ship_merge",
        );
        let wall = t.spans()[dispatch].duration();
        assert!((child_sum(&t, dispatch) - wall).abs() < 1e-9);
        assert!((t.median("cluster.ship_merge") - 0.8).abs() < 1e-6);
    }

    #[test]
    fn over_covering_parts_give_a_negative_residual() {
        let mut t = Tracer::new(true);
        let p = parent_span(&mut t, "core.cbase", 0.1);
        t.children(Some(p), &[("cpu.cbase.partition", 0.15)], "r");
        assert!((t.median("r") + 0.05).abs() < 1e-9);
        assert!((child_sum(&t, p) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let op = t.op();
        let s = t.span("x", op, None, now, now);
        t.children(s, &[("y", 1.0)], "z");
        assert!(s.is_none() && t.spans().is_empty());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 has rank 190, 10 beyond; p96 has only 8.
        assert_eq!(tail_percentile(&v), Some((95, 190.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
        // 20 samples: p50 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50, 10.0)));
        // Ten or fewer samples: no percentile has ten beyond it.
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
