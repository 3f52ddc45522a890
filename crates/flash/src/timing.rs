//! Flash chip timing specifications.
//!
//! EagleTree lets users "set up every hardware parameter of the simulated
//! SSD: basic flash chip timings (i.e., to send a command, transfer data on
//! a channel, read, write or erase)" and "specify the flash chip type (SLC
//! or MLC) and its support for advanced commands" (§2.2). The presets here
//! carry datasheet-typical values; absolute numbers are representative, the
//! experiments rely on the well-established ordering
//! `t_read ≪ t_prog ≪ t_erase` and on channel transfer costs.

use eagletree_core::SimDuration;

/// SLC vs MLC NAND. MLC trades density for slower, more wear-prone cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellType {
    /// Single-level cell: fast, endurant.
    Slc,
    /// Multi-level cell: ~2-3× slower programs, ~2× slower reads, lower
    /// erase endurance.
    Mlc,
}

/// Basic flash chip timings plus advanced-command capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSpec {
    /// Cell technology this spec models.
    pub cell: CellType,
    /// Time to send a command/address cycle over the channel.
    pub t_cmd: SimDuration,
    /// Time to move one full page of data over the channel (in or out).
    pub t_xfer: SimDuration,
    /// Array read time (page → LUN register).
    pub t_read: SimDuration,
    /// Array program time (LUN register → page).
    pub t_prog: SimDuration,
    /// Block erase time.
    pub t_erase: SimDuration,
    /// Whether the chip supports copy-back (intra-plane move without
    /// channel data transfer).
    pub copyback: bool,
    /// Whether the chip supports cached (pipelined) programming: the data
    /// transfer of the next page may overlap the array-program of the
    /// previous page in the same block.
    pub cached_program: bool,
    /// Erase endurance: nominal program/erase cycles per block.
    pub endurance: u32,
}

impl TimingSpec {
    /// Datasheet-typical SLC NAND (e.g. Micron SLC parts): 25 µs read,
    /// 200 µs program, 1.5 ms erase, 100 MB/s channel.
    pub fn slc() -> Self {
        TimingSpec {
            cell: CellType::Slc,
            t_cmd: SimDuration::from_nanos(200),
            t_xfer: SimDuration::from_micros(40), // 4 KiB @ ~100 MB/s
            t_read: SimDuration::from_micros(25),
            t_prog: SimDuration::from_micros(200),
            t_erase: SimDuration::from_millis(1) + SimDuration::from_micros(500),
            copyback: true,
            cached_program: true,
            endurance: 100_000,
        }
    }

    /// Datasheet-typical MLC NAND: 50 µs read, 600 µs program, 3 ms erase.
    pub fn mlc() -> Self {
        TimingSpec {
            cell: CellType::Mlc,
            t_cmd: SimDuration::from_nanos(200),
            t_xfer: SimDuration::from_micros(40),
            t_read: SimDuration::from_micros(50),
            t_prog: SimDuration::from_micros(600),
            t_erase: SimDuration::from_millis(3),
            copyback: true,
            cached_program: true,
            endurance: 5_000,
        }
    }

    /// Total channel occupancy to start a read (command only; data comes
    /// back later via transfer-out).
    pub fn read_channel_time(&self) -> SimDuration {
        self.t_cmd
    }

    /// LUN occupancy for the array read itself.
    pub fn read_lun_time(&self) -> SimDuration {
        self.t_cmd + self.t_read
    }

    /// Channel occupancy to start a program: command + page data in.
    pub fn program_channel_time(&self) -> SimDuration {
        self.t_cmd + self.t_xfer
    }

    /// LUN occupancy for a program from the moment the command starts.
    pub fn program_lun_time(&self) -> SimDuration {
        self.t_cmd + self.t_xfer + self.t_prog
    }

    /// Channel occupancy to start an erase.
    pub fn erase_channel_time(&self) -> SimDuration {
        self.t_cmd
    }

    /// LUN occupancy for an erase.
    pub fn erase_lun_time(&self) -> SimDuration {
        self.t_cmd + self.t_erase
    }

    /// Channel occupancy for a copy-back (two command cycles, no data).
    pub fn copyback_channel_time(&self) -> SimDuration {
        self.t_cmd * 2
    }

    /// LUN occupancy for a copy-back: internal read then program.
    pub fn copyback_lun_time(&self) -> SimDuration {
        self.t_cmd * 2 + self.t_read + self.t_prog
    }

    /// Sanity-check the spec: the experiments rely on the documented
    /// ordering `t_cmd < t_read < t_prog < t_erase`.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_cmd >= self.t_read {
            return Err("t_cmd must be below t_read for NAND flash".into());
        }
        if self.t_read >= self.t_prog {
            return Err("t_read must be below t_prog for NAND flash".into());
        }
        if self.t_prog >= self.t_erase {
            return Err("t_prog must be below t_erase for NAND flash".into());
        }
        if self.endurance == 0 {
            return Err("endurance must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_ordered() {
        for spec in [
            TimingSpec::slc(),
            TimingSpec::mlc(),
        ] {
            spec.validate().unwrap();
            assert!(spec.t_cmd < spec.t_read);
            assert!(spec.t_read < spec.t_prog);
            assert!(spec.t_prog < spec.t_erase);
        }
    }

    #[test]
    fn mlc_slower_than_slc() {
        let slc = TimingSpec::slc();
        let mlc = TimingSpec::mlc();
        assert!(mlc.t_read > slc.t_read);
        assert!(mlc.t_prog > slc.t_prog);
        assert!(mlc.t_erase > slc.t_erase);
        assert!(mlc.endurance < slc.endurance);
    }

    #[test]
    fn derived_occupancies_compose() {
        let s = TimingSpec::slc();
        assert_eq!(s.read_lun_time(), s.t_cmd + s.t_read);
        assert_eq!(s.program_lun_time(), s.t_cmd + s.t_xfer + s.t_prog);
        assert_eq!(s.erase_lun_time(), s.t_cmd + s.t_erase);
        assert_eq!(s.copyback_lun_time(), s.t_cmd * 2 + s.t_read + s.t_prog);
        // Copy-back frees the channel relative to read+program.
        assert!(
            s.copyback_channel_time()
                < s.read_channel_time() + s.t_xfer + s.program_channel_time()
        );
    }

    #[test]
    fn validate_catches_inverted_timings() {
        let mut s = TimingSpec::slc();
        s.t_read = s.t_prog + SimDuration::from_nanos(1);
        assert!(s.validate().is_err());
        let mut s = TimingSpec::slc();
        s.t_cmd = s.t_read;
        assert!(s.validate().is_err());
        let mut s = TimingSpec::slc();
        s.t_erase = SimDuration::ZERO;
        assert!(s.validate().is_err());
        let mut s = TimingSpec::slc();
        s.endurance = 0;
        assert!(s.validate().is_err());
    }
}
