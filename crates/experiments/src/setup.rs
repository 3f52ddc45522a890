//! Simulation setup bundles.
//!
//! A [`Setup`] carries every configurable of the four layers; experiments
//! clone a baseline and vary one knob per point, which is exactly the
//! paper's experiment-template contract.

use eagletree_controller::{Controller, ControllerConfig};
use eagletree_flash::{Geometry, TimingSpec};
use eagletree_os::{Os, OsConfig};

/// A complete simulation configuration.
#[derive(Clone)]
pub struct Setup {
    pub geometry: Geometry,
    pub timing: TimingSpec,
    pub ctrl: ControllerConfig,
    pub os: OsConfig,
}

impl Setup {
    /// The demo SSD: 4 channels × 4 LUNs of SLC, default policies.
    pub fn demo() -> Self {
        Setup {
            geometry: Geometry::demo(),
            timing: TimingSpec::slc(),
            ctrl: ControllerConfig::default(),
            os: OsConfig::default(),
        }
    }

    /// A small SSD for GC/wear studies (fast to precondition): 2 × 2 LUNs,
    /// 64 blocks of 32 pages per LUN.
    pub fn small() -> Self {
        Setup {
            geometry: Geometry {
                channels: 2,
                luns_per_channel: 2,
                planes_per_lun: 1,
                blocks_per_plane: 64,
                pages_per_block: 32,
                page_size: 4096,
            },
            timing: TimingSpec::slc(),
            ctrl: ControllerConfig::default(),
            os: OsConfig::default(),
        }
    }

    /// The tiny test SSD.
    pub fn tiny() -> Self {
        Setup {
            geometry: Geometry::tiny(),
            timing: TimingSpec::slc(),
            ctrl: ControllerConfig::default(),
            os: OsConfig::default(),
        }
    }

    /// Build the simulated system.
    pub fn build(&self) -> Os {
        let ctrl = Controller::new(self.geometry, self.timing, self.ctrl.clone())
            .expect("invalid setup");
        Os::new(ctrl, self.os.clone())
    }

    /// Logical pages the built device will export.
    pub fn logical_pages(&self) -> u64 {
        self.ctrl.logical_pages(&self.geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        for s in [Setup::demo(), Setup::small(), Setup::tiny()] {
            let os = s.build();
            assert_eq!(os.controller().logical_pages(), s.logical_pages());
        }
    }

    #[test]
    fn logical_pages_matches_capacity_fraction() {
        let s = Setup::tiny();
        assert_eq!(s.logical_pages(), s.ctrl.logical_pages(&s.geometry));
        assert!(s.logical_pages() < s.geometry.total_pages());
    }
}
