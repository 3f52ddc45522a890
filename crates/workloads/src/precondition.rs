//! Preconditioning threads.
//!
//! "Bringing the SSD to a well-defined state … can typically be done by
//! starting thread(s) that write over the entire logical address space
//! sequentially and/or randomly, and then triggering the experiment
//! workload once the preparation threads finished" (§2.3, following the
//! uFLIP methodology). These helpers build such threads; wire them as
//! dependencies with [`eagletree_os::Os::add_thread_after`].

use eagletree_os::Workload;

use crate::gen::{Pumped, Region, SeqWriteGen};

/// A thread that writes the entire logical space once, sequentially.
pub fn sequential_fill(window: u64) -> Box<dyn Workload> {
    // count = 0 means "whole space"; resolved lazily because the logical
    // size is only known from the context. We use a large window-driven
    // generator sized at first call.
    Box::new(
        Pumped::new(WholeSpaceSeq { issued: 0 }, window, 0xF111).named("seq-precondition"),
    )
}

/// A thread that writes as many random pages as the logical space holds
/// (uniformly, so roughly 63% coverage with duplicates — the classic
/// "random preconditioning" state).
pub fn random_fill(window: u64, seed: u64) -> Box<dyn Workload> {
    Box::new(
        Pumped::new(WholeSpaceRand { issued: 0, count: None }, window, seed)
            .named("rand-precondition"),
    )
}

/// Sequential whole-space writer that sizes itself from the context.
struct WholeSpaceSeq {
    issued: u64,
}

impl crate::gen::IoGen for WholeSpaceSeq {
    fn next_io(
        &mut self,
        _rng: &mut eagletree_core::SimRng,
        logical_pages: u64,
    ) -> Option<eagletree_os::OsIo> {
        if self.issued >= logical_pages {
            return None;
        }
        let lpn = self.issued;
        self.issued += 1;
        Some(eagletree_os::OsIo::write(lpn))
    }
}

/// Random whole-space writer (N = logical pages uniform writes).
struct WholeSpaceRand {
    issued: u64,
    count: Option<u64>,
}

impl crate::gen::IoGen for WholeSpaceRand {
    fn next_io(
        &mut self,
        rng: &mut eagletree_core::SimRng,
        logical_pages: u64,
    ) -> Option<eagletree_os::OsIo> {
        let count = *self.count.get_or_insert(logical_pages);
        if self.issued >= count {
            return None;
        }
        self.issued += 1;
        Some(eagletree_os::OsIo::write(rng.gen_range(logical_pages)))
    }
}

/// Convenience: a sequential fill over a subregion (e.g. only the area a
/// measured workload will touch).
pub fn region_fill(region: Region, window: u64) -> Box<dyn Workload> {
    Box::new(
        Pumped::new(SeqWriteGen::new(region, region.len), window, 0xF112)
            .named("region-precondition"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::IoGen;
    use eagletree_core::SimRng;

    #[test]
    fn whole_space_seq_covers_exactly_once() {
        let mut g = WholeSpaceSeq { issued: 0 };
        let mut rng = SimRng::new(0);
        let mut seen = Vec::new();
        while let Some(io) = g.next_io(&mut rng, 16) {
            seen.push(io.lpn);
        }
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn whole_space_rand_issues_n_writes_in_range() {
        let mut g = WholeSpaceRand {
            issued: 0,
            count: None,
        };
        let mut rng = SimRng::new(7);
        let mut n = 0;
        while let Some(io) = g.next_io(&mut rng, 32) {
            assert!(io.lpn < 32);
            n += 1;
        }
        assert_eq!(n, 32);
    }

    #[test]
    fn builders_produce_named_threads() {
        assert_eq!(sequential_fill(8).name(), "seq-precondition");
        assert_eq!(random_fill(8, 1).name(), "rand-precondition");
        assert_eq!(region_fill(Region::new(0, 4), 2).name(), "region-precondition");
    }
}
