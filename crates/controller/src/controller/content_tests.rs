//! [`Controller::content_at`]: what a physical page holds is its OOB tag
//! while the page is valid, and nothing once the page dies, however it
//! died.

use eagletree_flash::{FaultConfig, OobTag, PageState};

use super::Controller;
use crate::config::ControllerConfig;
use crate::driver::Driver;
use crate::recovery::RecoveryMode;
use crate::types::{Lpn, Ppn, RequestKind};

fn write(d: &mut Driver, lpn: Lpn) -> Ppn {
    d.submit(RequestKind::Write, lpn);
    d.run().unwrap();
    d.c.peek_mapping(lpn).unwrap()
}

/// The page whose OOB names `lpn`, found without asking `content_at`.
fn tagged(c: &Controller, lpn: Lpn) -> Ppn {
    (0..c.array.geometry().total_pages())
        .find(|&p| {
            c.array
                .oob_at(p)
                .is_some_and(|e| e.tag == OobTag::Data { lpn })
        })
        .expect("no page tagged with lpn")
}

#[test]
fn a_page_holds_its_tag_while_valid_and_nothing_once_dead() {
    let mut d = Driver::tiny(ControllerConfig::default());
    let data = |lpn| Some(OobTag::Data { lpn });

    // In flight: valid and tagged from the instant the program issues,
    // before its mapping lands.
    d.submit(RequestKind::Write, 7);
    let inflight = tagged(&d.c, 7);
    assert_eq!(d.c.peek_mapping(7), None);
    assert_eq!(d.c.content_at(inflight), data(7));
    d.run().unwrap();
    assert_eq!(d.c.peek_mapping(7), Some(inflight));
    assert_eq!(d.c.content_at(inflight), data(7));

    // Overwritten: the old page is dead, the new one holds the lpn.
    let old = write(&mut d, 5);
    let new = write(&mut d, 5);
    assert_eq!(d.c.content_at(old), None);
    assert_eq!(d.c.content_at(new), data(5));

    // Trimmed.
    let trimmed = write(&mut d, 6);
    d.submit(RequestKind::Trim, 6);
    assert_eq!(d.c.content_at(trimmed), None);

    // A failed program burns its page: written, no OOB, never valid
    // again. The write's program fails; its retry, queued once the failed
    // program completes, does not.
    let ok = FaultConfig {
        program_fail_base: 0.0,
        program_fail_per_pe: 0.0,
        erase_fail_base: 0.0,
        erase_fail_per_pe: 0.0,
        raw_bits_base: 0.0,
        ..FaultConfig::default()
    };
    d.c.array.install_fault_model(FaultConfig {
        program_fail_base: 1.0,
        ..ok
    });
    d.submit(RequestKind::Write, 8);
    d.c.array.install_fault_model(ok);
    d.run().unwrap();
    let remaps = d.c.stats.program_remaps;
    assert_eq!(remaps, 1);
    let a = &d.c.array;
    let burned = (0..a.geometry().total_pages())
        .filter(|&p| a.page_state_at(p) != PageState::Free && a.oob_at(p).is_none());
    assert_eq!(
        burned.map(|p| d.c.content_at(p)).collect::<Vec<_>>(),
        vec![None; remaps as usize]
    );
    assert_eq!(d.c.content_at(tagged(&d.c, 8)), data(8));

    // Torn: a program the power cut interrupted holds nothing after the
    // remount.
    d.submit(RequestKind::Write, 9);
    let torn = tagged(&d.c, 9);
    assert_eq!(d.c.content_at(torn), data(9));
    let image = d.power_cut();
    let cfg = ControllerConfig::default();
    let (c, _) = Controller::remount(image, cfg, RecoveryMode::FullScan).unwrap();
    assert!(c.array.is_torn_at(torn));
    assert_eq!(c.content_at(torn), None);
    assert_eq!(c.content_at(new), data(5));
    c.check_invariants();
}
