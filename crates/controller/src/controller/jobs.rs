//! A table of in-flight jobs addressed by small stable ids.

use std::ops::{Index, IndexMut};

/// Jobs keyed by the id [`JobTable::insert`] hands out, which pending ops
/// and completion events carry until [`JobTable::take`]. A taken job's
/// slot goes to a later insert, so the table is as long as the most jobs
/// ever in flight at once — not one slot per job for the device's life.
pub(super) struct JobTable<T>(Vec<Option<T>>);

impl<T> Default for JobTable<T> {
    fn default() -> Self {
        JobTable(Vec::new())
    }
}

impl<T> JobTable<T> {
    /// Store `job` in the lowest free slot (the table stays a handful of
    /// slots long, so finding it is a short scan) and return its id.
    pub(super) fn insert(&mut self, job: T) -> usize {
        let id = self.0.iter().position(Option::is_none).unwrap_or(self.0.len());
        if id == self.0.len() {
            self.0.push(None);
        }
        self.0[id] = Some(job);
        id
    }

    /// Remove live job `id`, freeing its slot.
    pub(super) fn take(&mut self, id: usize) -> T {
        self.0[id].take().expect("live job")
    }

    /// The live jobs, in id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Slots ever allocated: the high-water mark of jobs in flight.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.0.len()
    }
}

impl<T> Index<usize> for JobTable<T> {
    type Output = T;
    fn index(&self, id: usize) -> &T {
        self.0[id].as_ref().expect("live job")
    }
}

impl<T> IndexMut<usize> for JobTable<T> {
    fn index_mut(&mut self, id: usize) -> &mut T {
        self.0[id].as_mut().expect("live job")
    }
}

#[cfg(test)]
mod tests {
    use super::super::Controller;
    use crate::config::{ControllerConfig, MappingKind};
    use crate::driver::Driver;
    use crate::types::RequestKind;

    /// Fill the logical space of a tiny device, then overwrite it four
    /// times over in a scattered order, eight writes in flight.
    fn churn(cfg: ControllerConfig) -> Controller {
        let mut d = Driver::tiny(cfg);
        let n = d.c.logical_pages();
        let lpns = (0..n).chain((0..4 * n).map(|i| i * 7 % n));
        let writes: Vec<_> = lpns.map(|lpn| (RequestKind::Write, lpn)).collect();
        d.submit_windowed(&writes, 8);
        d.c
    }

    #[test]
    fn reclaim_jobs_reuse_their_slots() {
        let c = churn(ControllerConfig::default());
        assert!(c.stats().gc_erases >= 50, "{} victims", c.stats().gc_erases);
        // GC runs one victim per LUN; static wear leveling may add one.
        let bound = c.array().geometry().total_luns() as usize + 1;
        assert!(c.reclaim.jobs.capacity() <= bound, "{}", c.reclaim.jobs.capacity());
    }

    #[test]
    fn writeback_jobs_reuse_their_slots() {
        let c = churn(ControllerConfig {
            mapping: MappingKind::Dftl { cmt_entries: 32 },
            ..ControllerConfig::default()
        });
        let (started, slots) = (c.stats().mapping_writebacks, c.mapio.wb_jobs.capacity());
        assert!(started >= 50, "{started} writebacks");
        // One burst of evictions at most: the writes in flight.
        assert!(slots <= 8, "{slots} slots for {started} writebacks");
    }
}
