//! SSD geometry and physical addressing.
//!
//! A physical page is addressed by `(channel, lun, plane, block, page)`.
//! Following ONFI (and the paper's footnote 1), the LUN abstracts packages,
//! chips and dies: it is the minimum unit of parallelism. Planes subdivide a
//! LUN for copy-back locality but do not add parallelism in this model.

use std::fmt;

/// The shape of the simulated SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of channels between controller and flash.
    pub channels: u32,
    /// LUNs attached to each channel.
    pub luns_per_channel: u32,
    /// Planes per LUN (copy-back must stay within a plane).
    pub planes_per_lun: u32,
    /// Physical blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block (programmed strictly in order).
    pub pages_per_block: u32,
    /// Page payload size in bytes (determines channel transfer time).
    pub page_size: u32,
}

impl Geometry {
    /// A small geometry suitable for fast tests: 2 channels × 2 LUNs,
    /// 1 plane, 32 blocks of 16 pages.
    pub fn tiny() -> Self {
        Geometry {
            channels: 2,
            luns_per_channel: 2,
            planes_per_lun: 1,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_size: 4096,
        }
    }

    /// A "demo SSD" sized like the paper's interactive scenarios: 4 channels
    /// × 4 LUNs, 2 planes, 64 blocks of 32 pages (16 MiB of 4 KiB pages).
    pub fn demo() -> Self {
        Geometry {
            channels: 4,
            luns_per_channel: 4,
            planes_per_lun: 2,
            blocks_per_plane: 64,
            pages_per_block: 32,
            page_size: 4096,
        }
    }

    /// Total number of LUNs.
    pub fn total_luns(&self) -> u32 {
        self.channels * self.luns_per_channel
    }

    /// Blocks per LUN.
    pub fn blocks_per_lun(&self) -> u32 {
        self.planes_per_lun * self.blocks_per_plane
    }

    /// Total physical blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_luns() as u64 * self.blocks_per_lun() as u64
    }

    /// Total physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Validate that every dimension is non-zero and that the array has
    /// fewer than `u32::MAX` pages: the controller's mapping tables hold a
    /// physical page number in 32 bits, with `u32::MAX` meaning unmapped.
    pub fn validate(&self) -> Result<(), String> {
        let dims = [
            ("channels", self.channels),
            ("luns_per_channel", self.luns_per_channel),
            ("planes_per_lun", self.planes_per_lun),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_size", self.page_size),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(format!("geometry dimension `{name}` must be non-zero"));
            }
        }
        let pages = self
            .channels
            .checked_mul(self.luns_per_channel)
            .zip(self.planes_per_lun.checked_mul(self.blocks_per_plane))
            .and_then(|(luns, blocks)| {
                u64::from(luns)
                    .checked_mul(u64::from(blocks))?
                    .checked_mul(u64::from(self.pages_per_block))
            })
            .filter(|&pages| pages < u64::from(u32::MAX));
        if pages.is_none() {
            return Err(format!(
                "geometry {self:?} has too many pages: at most u32::MAX - 1 = {} are addressable",
                u32::MAX - 1
            ));
        }
        Ok(())
    }

    /// Linear LUN index for `(channel, lun)`.
    pub fn lun_index(&self, channel: u32, lun: u32) -> u32 {
        debug_assert!(channel < self.channels && lun < self.luns_per_channel);
        channel * self.luns_per_channel + lun
    }

    /// Linear LUN index of the page with linear index `idx`: what
    /// `lun_index` gives for `page_at(idx)`, in one division.
    pub fn lun_of_page(&self, idx: u64) -> u32 {
        debug_assert!(idx < self.total_pages());
        (idx / (self.blocks_per_lun() as u64 * self.pages_per_block as u64)) as u32
    }

    /// Iterate all block addresses, channel-major.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let g = *self;
        (0..g.channels).flat_map(move |channel| {
            (0..g.luns_per_channel).flat_map(move |lun| {
                (0..g.planes_per_lun).flat_map(move |plane| {
                    (0..g.blocks_per_plane).map(move |block| BlockAddr {
                        channel,
                        lun,
                        plane,
                        block,
                    })
                })
            })
        })
    }

    /// Linear index of a block in `0..total_blocks()`.
    pub fn block_index(&self, b: BlockAddr) -> u64 {
        debug_assert!(self.contains_block(b));
        ((self.lun_index(b.channel, b.lun) as u64 * self.planes_per_lun as u64
            + b.plane as u64)
            * self.blocks_per_plane as u64)
            + b.block as u64
    }

    /// Inverse of [`Geometry::block_index`].
    pub fn block_at(&self, idx: u64) -> BlockAddr {
        debug_assert!(idx < self.total_blocks());
        let block = (idx % self.blocks_per_plane as u64) as u32;
        let rest = idx / self.blocks_per_plane as u64;
        let plane = (rest % self.planes_per_lun as u64) as u32;
        let lun_linear = (rest / self.planes_per_lun as u64) as u32;
        BlockAddr {
            channel: lun_linear / self.luns_per_channel,
            lun: lun_linear % self.luns_per_channel,
            plane,
            block,
        }
    }

    /// Linear index of a page in `0..total_pages()`.
    pub fn page_index(&self, p: PhysicalAddr) -> u64 {
        self.block_index(p.block_addr()) * self.pages_per_block as u64 + p.page as u64
    }

    /// Inverse of [`Geometry::page_index`].
    pub fn page_at(&self, idx: u64) -> PhysicalAddr {
        debug_assert!(idx < self.total_pages());
        let page = (idx % self.pages_per_block as u64) as u32;
        let b = self.block_at(idx / self.pages_per_block as u64);
        PhysicalAddr {
            channel: b.channel,
            lun: b.lun,
            plane: b.plane,
            block: b.block,
            page,
        }
    }

    fn contains_block(&self, b: BlockAddr) -> bool {
        b.channel < self.channels
            && b.lun < self.luns_per_channel
            && b.plane < self.planes_per_lun
            && b.block < self.blocks_per_plane
    }
}

/// Address of a physical block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    pub channel: u32,
    pub lun: u32,
    pub plane: u32,
    pub block: u32,
}

impl BlockAddr {
    /// The page at `page` inside this block.
    pub fn page(self, page: u32) -> PhysicalAddr {
        PhysicalAddr {
            channel: self.channel,
            lun: self.lun,
            plane: self.plane,
            block: self.block,
            page,
        }
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}l{}p{}b{}",
            self.channel, self.lun, self.plane, self.block
        )
    }
}

/// Address of a physical page.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysicalAddr {
    pub channel: u32,
    pub lun: u32,
    pub plane: u32,
    pub block: u32,
    pub page: u32,
}

impl PhysicalAddr {
    /// The containing block.
    pub fn block_addr(self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            lun: self.lun,
            plane: self.plane,
            block: self.block,
        }
    }

    /// True if `other` lives in the same plane (copy-back constraint).
    pub fn same_plane(self, other: PhysicalAddr) -> bool {
        self.channel == other.channel
            && self.lun == other.lun
            && self.plane == other.plane
    }
}

impl fmt::Debug for PhysicalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}l{}p{}b{}pg{}",
            self.channel, self.lun, self.plane, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_totals() {
        let g = Geometry::demo();
        assert_eq!(g.total_luns(), 16);
        assert_eq!(g.blocks_per_lun(), 128);
        assert_eq!(g.total_blocks(), 16 * 128);
        assert_eq!(g.total_pages(), 16 * 128 * 32);
        assert_eq!(g.capacity_bytes(), 16 * 128 * 32 * 4096);
    }

    #[test]
    fn validate_rejects_zero_dims() {
        let mut g = Geometry::tiny();
        assert!(g.validate().is_ok());
        g.channels = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_bounds_the_page_count_below_u32_max() {
        // 2 · (2^31 - 1) = u32::MAX - 1 pages: the largest array.
        let largest = Geometry {
            channels: 2,
            luns_per_channel: 1,
            planes_per_lun: 1,
            blocks_per_plane: 1,
            pages_per_block: (1 << 31) - 1,
            page_size: 4096,
        };
        assert_eq!(largest.validate(), Ok(()));
        assert_eq!(largest.total_pages(), u64::from(u32::MAX - 1));
        let one_more = Geometry {
            channels: 3,
            luns_per_channel: 5,
            planes_per_lun: 17,
            blocks_per_plane: 257,
            pages_per_block: 65_537,
            ..largest
        };
        let overflows = Geometry {
            channels: 1 << 16,
            luns_per_channel: 1 << 16,
            ..largest
        };
        let overflows_lun = Geometry {
            planes_per_lun: 1 << 16,
            blocks_per_plane: 1 << 16,
            ..largest
        };
        let overflows_u64 = Geometry {
            channels: 1,
            luns_per_channel: u32::MAX,
            planes_per_lun: 1,
            blocks_per_plane: u32::MAX,
            pages_per_block: u32::MAX,
            ..largest
        };
        for g in [one_more, overflows, overflows_lun, overflows_u64] {
            let e = g.validate().unwrap_err();
            assert!(e.contains("u32::MAX - 1"), "{e}");
        }
    }

    #[test]
    fn block_index_roundtrip() {
        let g = Geometry::demo();
        for idx in 0..g.total_blocks() {
            let b = g.block_at(idx);
            assert_eq!(g.block_index(b), idx);
        }
    }

    #[test]
    fn page_index_roundtrip() {
        let g = Geometry::tiny();
        for idx in 0..g.total_pages() {
            let p = g.page_at(idx);
            assert_eq!(g.page_index(p), idx);
            assert_eq!(g.lun_of_page(idx), g.lun_index(p.channel, p.lun));
        }
    }

    #[test]
    fn blocks_iterator_covers_all_blocks_once() {
        let g = Geometry::tiny();
        let mut seen: Vec<u64> = g.blocks().map(|b| g.block_index(b)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..g.total_blocks()).collect::<Vec<_>>());
    }

    #[test]
    fn lun_index_is_channel_major() {
        let g = Geometry::demo();
        assert_eq!(g.lun_index(0, 0), 0);
        assert_eq!(g.lun_index(0, 3), 3);
        assert_eq!(g.lun_index(1, 0), 4);
        assert_eq!(g.lun_index(3, 3), 15);
    }

    #[test]
    fn same_plane_and_lun_predicates() {
        let a = PhysicalAddr {
            channel: 1,
            lun: 2,
            plane: 0,
            block: 3,
            page: 4,
        };
        let mut b = a;
        b.block = 9;
        assert!(a.same_plane(b));
        b.plane = 1;
        assert!(!a.same_plane(b));
        // Plane numbers repeat per LUN: plane 0 of another LUN is not it.
        b.plane = 0;
        b.lun = 0;
        assert!(!a.same_plane(b));
    }

    #[test]
    fn block_addr_page_builder() {
        let b = BlockAddr {
            channel: 0,
            lun: 1,
            plane: 0,
            block: 7,
        };
        let p = b.page(5);
        assert_eq!(p.page, 5);
        assert_eq!(p.block_addr(), b);
    }
}
