//! The generic experiment template.
//!
//! Mirrors §2.3: an experiment = (parameter/policy, variation strategy,
//! workload). [`Experiment`] names one and runs it to a [`Table`] — for
//! most of the suite by sweeping values into points (`crate::point`);
//! [`Scale`] shrinks IO counts so the same experiment runs as a quick
//! smoke test, a demo, or the full series.

use crate::metrics::Table;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-of-CPU → milliseconds: tiny IO counts for CI and tier-1.
    Smoke,
    /// The interactive-demo size.
    Demo,
    /// The full series.
    Full,
}

impl Scale {
    /// Scale a baseline IO count.
    pub fn ios(self, full: u64) -> u64 {
        match self {
            Scale::Smoke => (full / 16).max(64),
            Scale::Demo => (full / 4).max(256),
            Scale::Full => full,
        }
    }

    /// Thin a sweep: Smoke keeps first/last, Demo every other, Full all.
    pub fn thin<T: Clone>(self, points: &[T]) -> Vec<T> {
        match self {
            Scale::Smoke => {
                if points.len() <= 2 {
                    points.to_vec()
                } else {
                    vec![points[0].clone(), points[points.len() - 1].clone()]
                }
            }
            Scale::Demo => points.iter().step_by(2).cloned().collect(),
            Scale::Full => points.to_vec(),
        }
    }
}

/// A runnable experiment.
pub struct Experiment {
    /// Identifier ("E1" … "E27", "G1") — unique within `suite::all()`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper hook this reproduces.
    pub hook: &'static str,
    run: fn(Scale) -> Table,
}

impl Experiment {
    pub fn new(
        id: &'static str,
        title: &'static str,
        hook: &'static str,
        run: fn(Scale) -> Table,
    ) -> Self {
        Experiment {
            id,
            title,
            hook,
            run,
        }
    }

    /// Execute at the given scale.
    pub fn run(&self, scale: Scale) -> Table {
        (self.run)(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_ios_orders() {
        assert!(Scale::Smoke.ios(4096) < Scale::Demo.ios(4096));
        assert!(Scale::Demo.ios(4096) < Scale::Full.ios(4096));
        assert_eq!(Scale::Full.ios(4096), 4096);
        // Floors prevent degenerate runs.
        assert_eq!(Scale::Smoke.ios(10), 64);
    }

    #[test]
    fn scale_thin_keeps_ends() {
        let pts = vec![1, 2, 3, 4, 5];
        assert_eq!(Scale::Smoke.thin(&pts), vec![1, 5]);
        assert_eq!(Scale::Demo.thin(&pts), vec![1, 3, 5]);
        assert_eq!(Scale::Full.thin(&pts), pts);
        assert_eq!(Scale::Smoke.thin(&[7]), vec![7]);
    }

    #[test]
    fn experiment_runs_its_closure() {
        fn dummy(_s: Scale) -> Table {
            Table::new("EX", "dummy", "p")
        }
        let e = Experiment::new("EX", "dummy", "none", dummy);
        assert_eq!(e.run(Scale::Smoke).id, "EX");
    }
}
