//! Controller-level IO types.
//!
//! The controller receives [`SsdRequest`]s from the OS layer, decomposes
//! them into flash operations, and reports [`Completion`]s. Every internal
//! operation is tagged with its [`IoSource`] and classified into an
//! [`OpClass`] so scheduling policies can discriminate between application
//! IOs and GC / wear-leveling / mapping traffic — the interference the
//! paper's §1 questions revolve around.

use eagletree_core::SimTime;

/// Logical page number, the unit of the exported address space.
pub type Lpn = u64;

/// Physical page number: a linear index into the flash array
/// (see `Geometry::page_index`).
pub type Ppn = u64;

/// Identifier the OS uses to correlate completions with submissions.
pub type RequestId = u64;

/// What an application-visible request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read one logical page.
    Read,
    /// Write one logical page.
    Write,
    /// Discard one logical page (invalidate its mapping).
    Trim,
}

/// Data-temperature hint, either detected on-device or supplied by the OS
/// through the open interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temperature {
    /// Likely to be updated again soon.
    Hot,
    /// Unlikely to be updated soon.
    Cold,
}

/// Open-interface metadata attached to a request.
///
/// The paper replaces the block-device interface with "an extensible
/// messaging framework" (§2.2 "Open Interface"); these are the three hint
/// types it sketches. `None` everywhere reproduces a plain block device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoTags {
    /// Scheduling priority, 0 = most urgent. `None` = untagged.
    pub priority: Option<u8>,
    /// Declared data temperature (feeds allocation / wear leveling).
    pub temperature: Option<Temperature>,
    /// Update-locality group: pages sharing a group are co-located so they
    /// invalidate together, minimizing subsequent garbage collection.
    pub locality_group: Option<u32>,
}

impl IoTags {
    /// No hints: the traditional closed block-device interface.
    pub fn none() -> Self {
        Self::default()
    }

    /// Tag with a scheduling priority.
    pub fn with_priority(mut self, p: u8) -> Self {
        self.priority = Some(p);
        self
    }

    /// Tag with a temperature hint.
    pub fn with_temperature(mut self, t: Temperature) -> Self {
        self.temperature = Some(t);
        self
    }

    /// Tag with an update-locality group.
    pub fn with_locality(mut self, g: u32) -> Self {
        self.locality_group = Some(g);
        self
    }
}

/// A request submitted by the OS to the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdRequest {
    /// Host-assigned correlation id. A host counts them up: a read or an
    /// unbuffered write whose id does not follow that of the last one
    /// taken in flight is refused (a panic naming both).
    pub id: RequestId,
    /// Operation.
    pub kind: RequestKind,
    /// Target logical page.
    pub lpn: Lpn,
    /// Open-interface hints.
    pub tags: IoTags,
}

/// Completion notice returned to the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Id of the completed request.
    pub id: RequestId,
    /// Virtual time of completion.
    pub at: SimTime,
}

/// Who generated a flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoSource {
    /// An application read/write/trim.
    Application,
    /// Garbage collection migrating or erasing.
    GarbageCollection,
    /// Wear leveling migrating or erasing.
    WearLeveling,
    /// DFTL translation-page traffic.
    Mapping,
    /// Hybrid log-block merge traffic (switch / partial / full merges).
    Merge,
    /// Background scrubber refreshing at-risk blocks (read disturb /
    /// retention) before their bit errors outgrow ECC.
    Scrub,
}

/// Scheduling class of a pending flash operation: source × direction.
///
/// Policies rank these classes; see `sched`. Per-class tables
/// (`sched::ClassTable`) derive their length from [`OpClass::COUNT`], so
/// adding a variant here only requires extending [`OpClass::ALL`] — the
/// `const` assertions below fail the build if the two fall out of sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    AppRead,
    AppWrite,
    GcRead,
    GcWrite,
    WlRead,
    WlWrite,
    MergeRead,
    MergeWrite,
    MappingRead,
    MappingWrite,
    Erase,
    ScrubRead,
    ScrubWrite,
}

/// Compile-time sync check: `ALL` must list every variant in declaration
/// order. If a variant is added (anywhere) without extending `ALL`, either
/// the per-index equality or the `last + 1` length check fails the build.
const _: () = {
    let mut i = 0;
    while i < OpClass::ALL.len() {
        assert!(
            OpClass::ALL[i] as usize == i,
            "OpClass::ALL must list variants in declaration order"
        );
        i += 1;
    }
    assert!(
        OpClass::ALL.len() == OpClass::ScrubWrite as usize + 1,
        "OpClass::ALL is missing variants (extend it when OpClass grows)"
    );
};

impl OpClass {
    /// Number of classes; sizes every per-class table.
    pub const COUNT: usize = OpClass::ALL.len();

    /// All classes, for iteration in fair schedulers and reports.
    pub const ALL: [OpClass; 13] = [
        OpClass::AppRead,
        OpClass::AppWrite,
        OpClass::GcRead,
        OpClass::GcWrite,
        OpClass::WlRead,
        OpClass::WlWrite,
        OpClass::MergeRead,
        OpClass::MergeWrite,
        OpClass::MappingRead,
        OpClass::MappingWrite,
        OpClass::Erase,
        OpClass::ScrubRead,
        OpClass::ScrubWrite,
    ];

    /// Stable display name (trace labels, reports).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::AppRead => "AppRead",
            OpClass::AppWrite => "AppWrite",
            OpClass::GcRead => "GcRead",
            OpClass::GcWrite => "GcWrite",
            OpClass::WlRead => "WlRead",
            OpClass::WlWrite => "WlWrite",
            OpClass::MergeRead => "MergeRead",
            OpClass::MergeWrite => "MergeWrite",
            OpClass::MappingRead => "MappingRead",
            OpClass::MappingWrite => "MappingWrite",
            OpClass::Erase => "Erase",
            OpClass::ScrubRead => "ScrubRead",
            OpClass::ScrubWrite => "ScrubWrite",
        }
    }

    /// True for application-visible classes.
    pub fn is_application(self) -> bool {
        matches!(self, OpClass::AppRead | OpClass::AppWrite)
    }

    /// True for classes generated inside the SSD.
    pub fn is_internal(self) -> bool {
        !self.is_application()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_builder_composes() {
        let t = IoTags::none()
            .with_priority(1)
            .with_temperature(Temperature::Hot)
            .with_locality(7);
        assert_eq!(t.priority, Some(1));
        assert_eq!(t.temperature, Some(Temperature::Hot));
        assert_eq!(t.locality_group, Some(7));
        assert_eq!(IoTags::none(), IoTags::default());
    }

    #[test]
    fn op_class_partitions() {
        let apps = OpClass::ALL.iter().filter(|c| c.is_application()).count();
        let internals = OpClass::ALL.iter().filter(|c| c.is_internal()).count();
        assert_eq!(apps, 2);
        assert_eq!(apps + internals, OpClass::ALL.len());
    }

    #[test]
    fn op_class_all_is_complete_and_ordered() {
        assert_eq!(OpClass::COUNT, OpClass::ALL.len());
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL out of declaration order at {i}");
        }
        // Names are unique (catches copy-paste in `name`).
        let mut names: Vec<&str> = OpClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpClass::COUNT);
    }
}
