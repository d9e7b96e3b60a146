//! The benchmark's own spans: name, start, end, parent and cell, recorded
//! around every call into the system under test, kept in memory and written
//! out once at exit.  Spans *inside* the program are a later change; these
//! bracket it from outside.

use std::time::Instant;

use serde::Serialize;

/// One closed span.  Times are microseconds since the recorder was created.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index of the span in the recorder (spans are numbered as they open).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// What was bracketed, e.g. `build`, `run_until`, `unit.crypto.sign`.
    pub name: String,
    /// The cell the work belonged to, e.g. `closed/fs#3`; empty for
    /// workload-level spans.
    pub cell: String,
    /// Opening time.
    pub start_us: f64,
    /// Closing time.
    pub end_us: f64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Runs `work` inside a span named `name`; spans opened by `work` become
    /// its children.  Returns what `work` returns and the span's duration in
    /// seconds.
    pub fn scope<T>(
        &mut self,
        name: &str,
        cell: &str,
        work: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            cell: cell.to_string(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time — its duration minus the part its child spans
    /// cover — indexed like [`Spans::spans`].
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut self_us: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_us[parent] -= span.end_us - span.start_us;
            }
        }
        self_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_parents_and_self_time() {
        let mut spans = Spans::new();
        let (value, outer_s) = spans.scope("outer", "c", |spans| {
            let (_, inner_s) = spans.scope("inner", "c", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            assert!(inner_s >= 0.002);
            7
        });
        assert_eq!(value, 7);
        assert!(outer_s >= 0.002);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[0].parent, None);
        assert_eq!(recorded[1].parent, Some(0));
        assert!(recorded[1].start_us >= recorded[0].start_us);
        assert!(recorded[1].end_us <= recorded[0].end_us);
        let inner = recorded[1].end_us - recorded[1].start_us;
        let outer = recorded[0].end_us - recorded[0].start_us;
        let self_us = spans.self_times_us();
        assert!((self_us[0] - (outer - inner)).abs() < 1e-6);
        assert!((self_us[1] - inner).abs() < 1e-6);
    }
}
